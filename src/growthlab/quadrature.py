"""Adaptive Gauss-Kronrod quadrature for log-represented integrands.

The integrals this package needs have integrands spanning thousands of
orders of magnitude: a log-integrand routinely reaches 1e4.  Nothing here
ever exponentiates an absolute magnitude.  The integrand is supplied as its
logarithm, and each panel factors out the largest of its node log-values
before summing the node contributions.  The panels of an integral are
combined with log-sum-exp, and the integrals of a table up to successive
radii with one running log-sum over its segments.  So the result is the
logarithm of the integral with full relative accuracy regardless of scale.
Each log-sum over panels is exact: math.exp and one math.fsum (numpy's
exp differs from math.exp by an ulp on some 5% of arguments).

The integrand is vectorised: logf takes a 1-D float ndarray of nodes and
returns an ndarray of the same shape holding the log-integrand at each
node, with -inf marking zeros.  It runs with numpy's floating-point
warnings off, so np.log(0) is a quiet -inf, but a nan or +inf among its
values raises DomainError naming the first such node in panel order.
Interval ends and radii that are not finite, a segment between them wider
than the largest double, and a rel_tol that is not finite and positive,
raise DomainError before any node is formed.

Each panel uses the nested 7/15 Gauss-Kronrod pair of QUADPACK's QK15
(Piessens et al., 1983): the 15-point Kronrod rule K15 integrates
polynomials of degree up to 22 exactly, and its odd-indexed nodes together
with the midpoint are the nodes of the 7-point Gauss rule G7, so one panel
costs 15 integrand evaluations.  The panel value is K15 and its error
estimate is |K15 - G7|, formed from log K15 and log G7.  Each rule's sum
factors out its largest term w * exp(v), so every term is at most 1:
log K15 is that largest log-term, plus the log of the sum, plus the log
of the panel's half width.  The terms of both rules of a whole batch of
panels go through one exp, laid out node by node, and each sum is formed
in a fixed order, the first eight terms as a pairwise tree and the rest
one by one; the last bits of the two logs, and so which panels are
bisected, follow that order.

A segment starts from eight even or geometric panels, or from the panel
ends its table's hook gives (growthlab.growth states where it puts them).

Refinement is globally adaptive and runs in rounds (vectorised adaptive
quadrature in the manner of Shampine, 2008).  Each segment owns its round,
as each subinterval of QUADPACK's QAG owns its tolerance test: it stores
the values the round evaluated, and where its total estimated error is
above rel_tol times its total value it bisects the fewest worst panels
whose removal would bring the remaining error under that bound, ties going
to the lower index.  The new panels of every open segment are evaluated
with one call of logf.  Refinement stops at the floor of double precision
with QuadratureError: a panel whose halves' nodes would round onto their
ends is not halved, and an initial panel with a node rounded onto an end
where the integrand is not finite fails too.  log_quad_tables refines
integrals of several integrands up to several radii together, each with
its own panels, tolerance test and panel budget, so a round costs one
call however many are open.  When integrals fail, the error raised is the
one refining the tables alone, in order, would raise.  Panels are kept in
position order, so results are deterministic.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

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

# the same rule as arrays over the node axis of a batch of panels laid out
# node by node: the nodes, then the rows of the 15 K15 terms and the 7 G7
# terms of each panel, and the log weight of each row
_X = np.array([x for x, _, _ in _NODES])
_G7 = [i for i, (_, _, lwg) in enumerate(_NODES) if lwg is not None]
_TERMS = np.array(list(range(len(_NODES))) + _G7)
_LOG_W = np.array([[lwk] for _, lwk, _ in _NODES] + [[_NODES[i][2]] for i in _G7])


def log_sum(values) -> float:
    """log(sum(exp(v))) over an iterable of log values; -inf for empty input."""
    vals = values if isinstance(values, list) else list(values)
    m = max(vals) if vals else -math.inf
    if not -math.inf < m < math.inf:
        return m
    # exp(-inf - m) is 0.0, which leaves the exactly rounded sum as it is
    return m + math.log(math.fsum([math.exp(v - m) for v in vals]))


class LogQuadResult(NamedTuple):
    """Logarithm of an integral, its relative error estimate and its cost.

    evals counts the integrand values computed, 15 per panel ever evaluated.
    A result is a part _running_sum takes as it is.
    """

    log_value: float
    rel_error: float
    panels: int
    evals: int


class _BelowFloor(Exception):
    """args[0]: the row of an initial panel with a bad node at an end."""


def _floor(a: float, b: float) -> str:
    return f"panel [{a}, {b}] is below the double-precision floor"


def _panels(logf, a: np.ndarray, b: np.ndarray):
    """(log K15, log |K15 - G7|) of the panels [a[i], b[i]], one logf call.

    The batch, logf included, runs with numpy's floating-point warnings
    off: nodes and log-values past the largest double are named here, and
    logs of zero sums are meant.  The log-terms v + log w of both rules are
    laid out node by node, one row per term and one column per panel: 15
    K15 rows, then 7 G7 rows, so each rule's largest term, its shift and
    one exp over all 22 rows are elementwise.  Each K15 sum adds its first
    eight terms as a pairwise tree, ((t0 + t1) + (t2 + t3)) + ((t4 + t5) +
    (t6 + t7)), then t8, ..., t14 in turn, and each G7 sum adds its seven
    terms in turn: numpy's pairwise order along a row, so a panel's sums do
    not depend on this layout or on the rest of its batch.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        width = b - a
        half = 0.5 * width
        mid = 0.5 * (a + b)
        x = (mid[:, None] + half[:, None] * _X).ravel()
        if not np.isfinite(x).all():
            row = int((~np.isfinite(x)).argmax()) // len(_X)
            raise DomainError(f"a node of the panel [{a[row]}, {b[row]}] "
                              "passes the largest double")
        v = logf(x)
        t = v.reshape(len(a), len(_X)).T[_TERMS]
        t += _LOG_W
        tk, tg = t[:len(_X)], t[len(_X):]
        m = np.empty((2, len(a)))
        np.maximum.reduce(tk, axis=0, out=m[0])
        np.maximum.reduce(tg, axis=0, out=m[1])
        if not np.maximum.reduce(m[0]) < np.inf:
            # a nan or +inf: name the first, in panel order
            i = int((~(v < np.inf)).argmax())
            row = i // len(_X)
            if x[i] == a[row] or x[i] == b[row]:
                raise _BelowFloor(row)
            raise DomainError(f"integrand log-value at {x[i]} is {v[i]}")
        # a panel of zeros keeps its -inf terms, which exp takes to 0
        m[m == -np.inf] = 0.0
        tk -= m[0]
        tg -= m[1]
        np.exp(t, out=t)
        pairs = tk[0:8:2] + tk[1:8:2]
        quads = pairs[0::2] + pairs[1::2]
        np.add(quads[0], quads[1], out=tk[7])
        logs = np.empty((2, len(a)))
        np.add.reduce(tk[7:], out=logs[0])
        np.add.reduce(tg, out=logs[1])
        # log(0) stands for a zero sum here, and where k15 == g7 the masked
        # difference takes log1p(-1) or inf - inf
        np.log(logs, out=logs)
        logs += m
        # log(b - a) rather than log(half): half rounds to 0 on a panel one
        # subnormal wide, and bisection can leave a panel of zero width
        logs += np.log(width) - _LOG2
        k15, g7 = logs
        hi, lo = np.maximum(k15, g7), np.minimum(k15, g7)
        err = np.where(k15 == g7, -np.inf, hi + np.log1p(-np.exp(lo - hi)))
    return k15, err


def _initial_breakpoints(lo: float, hi: float) -> list[float]:
    """The ends of the eight geometric or even panels [lo, hi] starts from;
    the last is hi itself, which lo + (hi - lo) may miss by an ulp."""
    if lo > 0.0 and 16.0 <= hi / lo < math.inf:
        return geometric_grid(lo, hi, 9)
    width = hi - lo
    return [lo + width * (i / 8.0) for i in range(8)] + [hi]


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
    """One integral over [lo, hi] of table table, and its refinement round:
    its panel ends x in position order, panel i being [x[i], x[i + 1]],
    their log K15 values k and log error estimates e, and the number of
    panels ever evaluated; a and b end the panels its next round
    evaluates, every panel of x on the first round (halved None), else
    the two halves of each panel in halved."""

    def __init__(self, lo: float, hi: float, pts: list[float], table: int):
        self.lo, self.hi, self.table = lo, hi, table
        self.x, self.a, self.b, self.halved = pts, pts[:-1], pts[1:], None
        self.k, self.e, self.evaluated = [], [], 0

    def close(self, k: list[float], e: list[float], rel_tol: float):
        """Store the values k, e of this round's panels in position order
        and test the total.  Returns (log value, relative error, panels,
        evals) once log toterr - log total <= log rel_tol, a test that
        holds at any scale (total + log rel_tol rounds to total once
        ulp(total) exceeds 2 |log rel_tol|); else None, with the halves of
        the fewest worst panels (_worst) set for the next round; else, at
        _MAX_PANELS panels or with a half below the floor of _inside, this
        integral's QuadratureError."""
        self.evaluated += len(k)
        if self.halved is None:
            self.k, self.e = k, e
        else:
            # a slice walk: halved panel i gives way to its halves j, whose
            # shared end is a[2j + 1]
            x, kk, ee, prev = [], [], [], 0
            for j, i in enumerate(self.halved):
                x += self.x[prev:i + 1]
                x.append(self.a[2 * j + 1])
                kk += self.k[prev:i] + k[2 * j:2 * j + 2]
                ee += self.e[prev:i] + e[2 * j:2 * j + 2]
                prev = i + 1
            self.x = x + self.x[prev:]
            self.k, self.e = kk + self.k[prev:], ee + self.e[prev:]
        total, toterr = log_sum(self.k), log_sum(self.e)
        log_rel_tol = math.log(rel_tol)
        if toterr - total <= log_rel_tol or toterr == -math.inf:
            rel = math.exp(toterr - total) if total > -math.inf else 0.0
            return total, rel, len(self.k), 15 * self.evaluated
        if len(self.k) >= _MAX_PANELS:
            reason = f"needed more than {_MAX_PANELS} panels"
        else:
            worst = _worst(self.e, total + log_rel_tol,
                           _MAX_PANELS - len(self.k))
            a, b = [], []
            for i in worst:
                mid = 0.5 * (self.x[i] + self.x[i + 1])
                a += (self.x[i], mid)
                b += (mid, self.x[i + 1])
            below = [(lo, hi) for lo, hi in zip(a, b) if not _inside(lo, hi)]
            if not below:
                self.a, self.b, self.halved = a, b, worst
                return None
            reason = _floor(*below[0])
        return self.error(reason, rel_tol, total, toterr)

    def error(self, reason: str, rel_tol: float, total: float,
              toterr: float) -> QuadratureError:
        """This integral's QuadratureError, from the log total and log error
        of its panels."""
        rel = math.exp(toterr - total) if total > -math.inf else math.inf
        return QuadratureError(
            f"{reason} on [{self.lo}, {self.hi}] for rel_tol={rel_tol}; "
            f"reached {rel:.3e}",
            log_value=total, rel_error=rel, panels=len(self.k),
            evals=15 * self.evaluated)


def _refine(logf, segments: list[tuple], ntables: int,
            rel_tol: float) -> list[tuple[float, float, int, int]]:
    """(log value, relative error, panels, evals) of the integral over each
    (lo, hi, breakpoints, table) of segments, refined together.

    Tables are numbered from 0 to ntables - 1 and the segments of each are
    consecutive, in table order.  Each round makes one call logf(x, starts)
    for the new panels of every open segment, those of table t at
    x[starts[t]:starts[t + 1]], and each segment closes the round on its
    slice of the values (_Segment.close).  The error raised is the one
    refining the tables alone, in order, would raise.  A segment that fails
    its round stops the later ones, and earlier ones go on, so the first
    failure in list order is raised.  A logf batch that raises (a
    DomainError of an integrand value, or an initial panel with a node
    rounded onto an end where the integrand is not finite, which fails its
    segment at the floor) and spans several tables is redone one table at
    a time, from scratch and in order, and the first table's error is
    raised; only that error path pays for the redo.
    """
    live = [(i, _Segment(*segment)) for i, segment in enumerate(segments)]
    results, failure = [None] * len(live), None
    while live:
        sizes, a, b = [0] * (ntables + 1), [], []
        for _, seg in live:
            a += seg.a
            b += seg.b
            sizes[seg.table + 1] += len(seg.a)
        starts = [len(_X) * n for n in accumulate(sizes)]
        try:
            k, e = _panels(lambda x: logf(x, starts), np.array(a, float),
                           np.array(b, float))
        except (DomainError, QuadratureError, _BelowFloor) as exc:
            tables = sorted({seg.table for _, seg in live})
            if len(tables) > 1:
                for t in tables:
                    _refine(logf, [seg for seg in segments if seg[3] == t],
                            ntables, rel_tol)
            if not isinstance(exc, _BelowFloor):
                raise
            row = exc.args[0]
            for _, seg in live:
                if row < len(seg.a):
                    break
                row -= len(seg.a)
            # an initial panel: its segment holds no values yet
            raise seg.error(_floor(seg.a[row], seg.b[row]), rel_tol,
                            -math.inf, -math.inf) from None
        k, e, pos, opened, live = k.tolist(), e.tolist(), 0, live, []
        for i, seg in opened:
            if failure is not None and i > failure[0]:
                break
            n = len(seg.a)
            out = seg.close(k[pos:pos + n], e[pos:pos + n], rel_tol)
            pos += n
            if out is None:
                live.append((i, seg))
            elif isinstance(out, QuadratureError):
                failure = (i, out)
            else:
                results[i] = out
    if failure is not None:
        raise failure[1]
    return results


def log_quad(logf, lo: float, hi: float,
             rel_tol: float = 1e-12) -> LogQuadResult:
    """Integrate exp(logf) over [lo, hi] in log space.

    logf maps a 1-D float ndarray of radii to an ndarray of the same shape
    holding the log of the (nonnegative) integrand; -inf marks zeros.  It
    is called once per refinement round, with the nodes of every panel
    that round evaluates and numpy's floating-point warnings off.  Returns
    log of the integral together with an error estimate relative to the
    integral.  Raises QuadratureError when _MAX_PANELS panels cannot reach
    rel_tol or refinement meets the floor of double precision, and
    DomainError when logf produces nan or +inf.  It is log_quad_tables with
    one table and one radius.
    """
    _check_finite_positive("rel_tol", rel_tol)
    if not (-math.inf < lo <= hi < math.inf):
        raise DomainError(f"bad integration interval [{lo}, {hi}]: its ends "
                          "must be finite and in order")
    return log_quad_tables(lambda x, starts: logf(x), [(lo, [hi])],
                           rel_tol)[0][0]


def _running_sum(parts) -> list[tuple[float, float, int, int]]:
    """(log value, relative error, panels, evals) of the sums of the first
    0, 1, ..., len(parts) of parts, each such a tuple or a LogQuadResult.

    One running log-sum, O(1) per part: the sum so far is
    exp(m) * (1 + rest), m the largest log value so far, and rest, formed
    from the terms below the largest, keeps log1p accurate.  The relative
    error of a sum of nonnegative parts is the value-weighted mean of the
    parts' relative errors, exp(m) * err / (exp(m) * (1 + rest)).  A sum of
    one part is that part's log value and relative error exactly, taken
    as it is.
    """
    if len(parts) == 1:
        return [(-math.inf, 0.0, 0, 0), tuple(parts[0])]
    m, rest, err, panels, evals = -math.inf, 0.0, 0.0, 0, 0
    out = [(-math.inf, 0.0, 0, 0)]
    for value, rel, n, k in parts:
        panels += n
        evals += k
        if value > m:
            f = math.exp(m - value)
            rest, err = (rest + 1.0) * f, err * f + rel
            m = value
        elif value > -math.inf:
            f = math.exp(value - m)
            rest, err = rest + f, err + rel * f
        out.append((-math.inf, 0.0, panels, evals) if m == -math.inf else
                   (m + math.log1p(rest), err / (1.0 + rest), panels, evals))
    return out


def log_quad_tables(logf, tables, rel_tol: float = 1e-12
                    ) -> list[list[LogQuadResult]]:
    """Integrals of several integrands, each up to several radii, in one pass.

    tables lists (lo, radii) pairs, one per integrand, and one list of
    results is returned per table: the integrals of exp(logf) from lo up to
    each radius of a nondecreasing list of finite radii.  The segments
    [lo, R1], [R1, R2], ... of all tables are refined together, each with
    its own initial panels, tolerance test and _MAX_PANELS budget, so it
    gets the panels it would get refined alone.  A table may carry a third
    element ends(lo, hi): the initial panel ends of each of its segments
    [lo, hi], a nondecreasing list from lo to hi, else DomainError; without
    it a segment starts from the eight even or geometric panels of
    _initial_breakpoints.  The result at R sums the segments up to R, their
    panels and their evals, with their combined relative error, from one
    running sum over its segments' result tuples, O(1) per radius
    (_running_sum), and is the only LogQuadResult built; at or below lo it
    is -inf with zero error.  Each round makes one call logf(x, starts),
    with numpy's floating-point warnings off, for the new panels of every
    open segment: x holds the nodes table by table, in table order, and
    those of table t are x[starts[t]:starts[t + 1]], so logf can give each
    table its own integrand.  When integrals fail, the error raised is the
    one that refining the tables one after another, in order, would raise
    (see _refine).
    """
    _check_finite_positive("rel_tol", rel_tol)
    segments = []
    spans = []
    for t, (lo, radii, *hook) in enumerate(tables):
        ends = hook[0] if hook else _initial_breakpoints
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
            if not R - start < math.inf:
                raise DomainError(f"integration segment [{start}, {R}] is "
                                  "wider than the largest double")
            if R > start:
                pts = ends(start, R)
                if pts[:1] != [start] or pts[-1:] != [R] or pts != sorted(pts):
                    raise DomainError(f"panel ends {pts} do not run from "
                                      f"{start} to {R} in nondecreasing order")
                segments.append((start, R, pts, t))
                start = R
            upto.append(len(segments))
        spans.append((begin, len(segments), upto))
    parts = _refine(logf, segments, len(tables), rel_tol) if segments else []
    out = []
    for begin, end, upto in spans:
        sums = _running_sum(parts[begin:end])
        out.append([LogQuadResult(*sums[n - begin]) for n in upto])
    return out
