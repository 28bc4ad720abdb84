"""Growth functionals, rate extraction and integral-inequality checks.

For a model surface with warp g, a profile v and a truncation level s0, set
w = (v - s0)+ and t0 = v^{-1}(s0).  The three functionals measured here are

    phi(s) = omega * g(s) * w(s)**q                (sphere integral)
    G(R)   = integral of phi over (t0, R)          (ball integral)
    H(R)   = integral of omega * g * w**(q-p) * (v')**p over (t0, R),

all carried as logarithms, and the capacity integral J(r, R) of
phi**(1/(1-p)) over (r, R).  On the extremal examples G grows at exactly
the threshold rate, and the comparison constants from
:mod:`growthlab.params` turn G, H and J into verifiable inequalities: a
lower bound for the composite functional G + const * R**mu * H, an annulus
estimate bounding H by G on a slightly larger ball, and a capacity-type
upper bound for H in terms of J.  Each check reports both sides, the margin
in the direction that must be nonnegative, and a tolerance built from the
quadrature error estimates.

Every G, H and J an example needs is computed in one refinement,
_integrals: one log_quad_tables pass whose integrand evaluates the excess
v - s0 and the warp once per node and forms each functional's integrand
from them, so each round costs one integrand call for all of them.  The
pieces of G and H next to the support edge t0 are tables of the same pass
(_edge_split states when and how).  The tables are G's edge, G, H's edge,
H, then J; integrals fail in that order, and the comparison constants come
after them.

G, H and J share one cluster of initial panel ends, put where nearly all
of their mass lies, at the factors f = 1, 2, 3, 4, 6, 8, 11, 16, 22, 32
and 48 of the e-fold width w of the integrand (see _CLUSTER).  A segment
[lo, R] of G or of H spanning more than _TOP_SPAN = 24 widths at its top
R starts with the ends R - w * f inside it, and G has an edge table only
where its first segment does not (see _top_width).  Where the cluster is
complete, its farthest end R - 48 w strictly inside the segment, one
panel covers [lo, R - 48 w]; where it is partial, the eight default
panels cover the rest.  J's integrand phi**(1/(1-p)) decays from the
bottom r of its interval (r, R), so J starts with the ends r + w * f
inside the interval, w its width at r, and the default panels cover the
rest (_CLUSTER says why J gets no such one panel).  Every width
comes from one scaled_derivs call on the profile and one log_slopes
call on the warp, made before the pass (see _widths).  On the grid
every suite example then closes in its first round, and a rate window in
one or two: a sweep of the suite over sharp_grid() makes 27 integrand
batches, and one of measure_rate 33.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

import numpy as np

# growth re-exports the sphere integrand, CheckReport and the l1 verdict
from .models import (ModelManifold, RadialProfile,  # noqa: F401
                     _log_excess_of, _log_s0, _support_start,
                     geometric_grid, log_sphere_integral, sphere_log_slope)
from .params import (CheckReport, DomainError, QuadratureError,  # noqa: F401
                     _annulus_constant, _check_exponents,
                     _check_finite_positive, _check_nonnegative,
                     classify_l1_condition, comparison_constants)
from .quadrature import (_initial_breakpoints, _running_sum, log_quad_tables,
                         log_sum)
from .sharp import SharpExample

# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


class GrowthSample(namedtuple("GrowthSample", "R logG quad_error")):
    """One measurement of a ball functional: radius, log value, error."""

    __slots__ = ()


class RateEstimate(namedtuple(
        "RateEstimate", "rate fit_residual regime window n_samples")):
    """Leading growth exponent fitted from samples of a log functional.

    regime "power" (beta > 0): logG was modelled as
    A * R**beta + B * log R + C and rate = A * beta, the exponent in
    log G ~ (rate/beta) * R**beta.  regime "log" (beta = 0): logG was
    modelled as A * log R + C and rate = A.  fit_residual is the worst
    absolute misfit of the model on the samples, and window the pair
    (first R, last R).
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# the three functionals
# ---------------------------------------------------------------------------


def log_ball_integral(manifold: ModelManifold, profile: RadialProfile,
                      q: float, s0: float, R: float,
                      rel_tol: float = 1e-12) -> GrowthSample:
    """G(R): log of the integral of the sphere integrand up to radius R.

    Returns logG = -inf (with zero error) when R does not reach the region
    where v exceeds s0.
    """
    return growth_samples(manifold, profile, q, s0, [R], rel_tol=rel_tol)[0]


def log_energy_integral(manifold: ModelManifold, profile: RadialProfile,
                        p: float, q: float, s0: float, R: float,
                        rel_tol: float = 1e-12) -> tuple[float, float]:
    """H(R): log of the integral of omega * g * w**(q-p) * (v')**p.

    Returns (log value, relative error estimate).  The integrand behaves
    like (s - t0)**(gamma - 1) at the support edge, gamma = q - p + 1, and
    blows up there for q < p; _edge_split says when the piece next to t0
    is a table of its own, in a variable that removes the singularity,
    also below a first segment that starts from a top-end cluster, where
    G has none.  That table comes before the rest in the one pass of
    _integrals, so its failure is the one raised when both fail.  On the
    leading piece the excess v - s0 is expanded around the computed edge
    through the profile's log_value_delta, treating v(t0) = s0 as exact:
    the difference log v(s) - log s0 is needed at separations far below
    the cancellation floor of direct subtraction.  (The value of a q < p
    integral is inherently sensitive to the edge location at relative
    order ulp**gamma; the margins built from it are insensitive to that.)
    """
    return _integrals(manifold, profile, p, q, s0, [], [R], [], rel_tol)[1][0]


def growth_samples(manifold: ModelManifold, profile: RadialProfile,
                   q: float, s0: float, radii,
                   rel_tol: float = 1e-12) -> list[GrowthSample]:
    """Ball integrals G(R) for every radius in an increasing grid.

    The integral runs once from the support start t0 through the grid:
    G at each radius is G at the previous one plus the integral over the
    gap between them; _edge_split says how the piece next to t0 is
    integrated.  Radii at or below t0 give logG = -inf with zero error.
    """
    _check_finite_positive("q", q)
    radii = [float(R) for R in radii]
    if not radii:
        raise DomainError("radius grid is empty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly increasing")
    G, _, _ = _integrals(manifold, profile, None, q, s0, radii, [], [],
                         rel_tol)
    return [GrowthSample(R=R, logG=log_g, quad_error=err)
            for R, (log_g, err) in zip(radii, G)]


# the tables of _integrals, in order: the support edge of G, the rest of G,
# the edge of H, the rest of H, then one per J interval
_G_EDGE, _G, _H_EDGE, _H, _J = range(5)


def _edge_split(t0: float, alpha: float, radii, edge: bool,
                near=lambda R_min: True):
    """(edge table, rest table, m) of a functional whose integrand behaves
    like (s - t0)**(alpha - 1) at the support edge t0, up to radii.

    This is the support-edge rule of G (alpha = q + 1) and H
    (alpha = gamma = q - p + 1, singular at t0 for q < p).  _integrals sets
    edge when s0 > 0 and t0 > t_min, and gives G a near that is false where
    its first segment starts from a top-end cluster (see _top_width).  With
    edge set, a radius above t0, R_min the smallest such radius, and
    near(R_min) true, the edge piece over (t0, t1] with
    t1 = t0 + min(1, (R_min - t0)/2) is integrated in tau at the radii
    s = t0 + tau**m, m = ceil(2*alpha)/alpha, and the rest table starts at
    t1; else the edge table is empty.  In tau the integrand is
    tau**(ceil(2*alpha) - 1) times a function of tau**m with m >= 2, so
    QK15 need not bisect toward t0 to resolve it, and for alpha < 1 (H at
    q < p) no singularity is left.
    """
    above = [R for R in radii if R > t0]
    if not (edge and above and near(min(above))):
        return (0.0, []), (t0, radii), 1.0
    n = math.ceil(2.0 * alpha)
    t1 = t0 + min(1.0, 0.5 * (min(above) - t0))
    return (0.0, [(t1 - t0) ** (alpha / n)]), (t1, radii), n / alpha


# the panel ends of the cluster where the integrands of G and H peak, in
# e-fold widths below the top of a segment, and where J's peaks, above the
# bottom.  Below the last end, 48 widths down, one panel covers the rest of
# a G or H segment: their integrands rise towards the top with concave logs
# on the examples, so the rest holds a share of the mass below the rounding
# of its sum.  J's integrand decays like a power s**-b on the mu = p
# examples, with a convex log: past r + 48 w it holds about
# (1 + 48 / b)**(1 - b) of J, 3e-11 at b = 22, which one panel over a long
# rest misses (J over (2.41, 2.41e5) at (3, 7, 3) came out 2e-6 off the
# closed form while claiming 5e-14), so the default panels, geometric
# where the rest is long, cover the rest of J
_CLUSTER = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 11.0, 16.0, 22.0, 32.0, 48.0)

# the rounding of a term of J's log integrand, relative to the term: a pow
# or log, then a product, each within an ulp (see _integrals); against
# 40-digit mpmath, J over (r, 4r) stayed within a quarter of the floor
# this gives, in some 500 draws of the bottom-end property's domain
# (tests/test_growth.py) where mpmath's own quadrature converged
_J_ROUNDING = 2.0 * math.ulp(1.0)

# the e-fold widths a segment must span to start from a top-end cluster: one
# QK15 panel meets rel_tol = 1e-12 on an exponential across up to about 3.3
# e-folds (its error estimate is 2.3e-13 across 3 and 1.8e-12 across 3.5),
# so the eight default panels resolve a segment of up to 8 * 3 widths, and
# those below a partial cluster, of 24 to 48 widths, the rest of it
_TOP_SPAN = 24.0


def _widths(manifold: ModelManifold, profile: RadialProfile, p: float | None,
            q: float, s0: float, tops, bottoms) -> tuple[dict, dict]:
    """The e-fold widths of the integrands at their segment ends, as two
    dicts by radius, with e_g = r g'/g and e_v = r v'/v: at each R of tops
    the width R / (e_g + q * e_v) of g * v**q, whose log-slope G's and H's
    integrands share to leading order, and at each bottom r of a J
    interval the width (p - 1) * r / (e_g + q * e_v * v / (v - s0)) of
    J's phi**(1/(1-p)).  One scaled_derivs call on the profile and one
    log_slopes call on the warp give them all, v / (v - s0) as
    -1 / expm1(-d), d = log v - log s0, from the profile's log v column.
    A width is None where it is not finite and positive, and the dicts are
    empty for a profile or warp without these grid calls."""
    radii = [*tops, *bottoms]
    try:
        lvs, evs, _ = profile.scaled_derivs(radii)
        egs = manifold.warp.log_slopes(radii)
    except NotImplementedError:
        return {}, {}
    log_s0, n, top, bottom = _log_s0(s0), len(tops), {}, {}
    for i, (r, lv, ev, eg) in enumerate(zip(radii, lvs, evs, egs)):
        try:
            # at a bottom, v / (v - s0) = -1 / expm1(-d), 1 where s0 = 0
            w = r / (eg + q * ev) if i < n else (p - 1.0) * r / (
                eg + q * ev * (-1.0 / math.expm1(log_s0 - lv)))
        except (OverflowError, ZeroDivisionError):
            w = 0.0
        (top if i < n else bottom)[r] = w if 0.0 < w < math.inf else None
    return top, bottom


def _top_width(widths: dict, lo: float, hi: float) -> float | None:
    """The width at hi from the top widths of _widths when [lo, hi] spans
    more than _TOP_SPAN of them, else None.  G's integrand vanishes like
    (s - t0)**q at t0, so below a first segment that starts from this
    cluster the panels below it cover G's edge (see _edge_split): one
    panel where the cluster is complete, else the default ones."""
    w = widths.get(hi)
    return w if w is not None and hi - _TOP_SPAN * w > lo else None


def _integrals(manifold: ModelManifold, profile: RadialProfile,
               p: float | None, q: float, s0: float, g_radii, h_radii,
               j_pairs, rel_tol: float):
    """G at each of g_radii, H at each of h_radii, J over each (r, R) of
    j_pairs, as three lists of (log value, relative error).

    g_radii and h_radii are nondecreasing; radii at or below the support
    start t0 give -inf with zero error.  All of them are refined in one
    log_quad_tables pass, G and H cumulatively through their radii, with
    one integrand that evaluates the excess and the warp once per node.
    G and H may each have an edge table next to t0, shared by all of its
    radii (see _edge_split), whose result G or H at R adds to the rest up
    to R with one _running_sum over the two.  A q whose edge exponent
    2(q + 1) is not finite is refused, and so is G at t0 = 0 where its
    integrand g * v**q behaves like s**e with e <= -1, e = e_g + q * e_v
    read from the log_slopes of the warp and the profile (if both have it)
    at the smallest positive double.  The integrand, run with numpy's
    floating-point warnings off (see log_quad_tables), makes one log_value
    call on all nodes, and on edge nodes expands the excess v - s0 around
    t0 through the profile's log_value_delta instead, treating v(t0) = s0
    as exact; it forms each table's formula on that table's nodes only.
    J's relative error is at least _J_ROUNDING, 2 ulps, times the condition
    of its log integrand -log phi / (p - 1), the largest over its nodes of
    (|log omega| + |log g| + q |log v| v / (v - s0)) / (p - 1): the
    rounding of those terms, which the quadrature's estimate does not see.
    p may be None when only G is asked for, else _check_exponents(p, q).
    The tables are G's edge, G, H's edge, H, then J, so when several
    integrals fail, the error raised is the first in that order.
    """
    gamma = None
    if h_radii:
        _check_exponents(p, q)
        gamma = q - p + 1.0
    # _edge_split's exponents 2 * alpha are at most 2(q + 1)
    if not 2.0 * (q + 1.0) < math.inf:
        raise DomainError(f"the support-edge exponent 2(q + 1) is not "
                          f"finite at q={q}")
    log_s0 = _log_s0(s0)
    log_omega = math.log(manifold.omega)
    t0 = _support_start(profile, s0)
    edge = s0 > 0.0 and t0 > profile.t_min
    if t0 == 0.0 and g_radii and g_radii[-1] > t0:
        try:
            e = manifold.warp.log_slopes([5e-324])[0] \
                + q * profile.log_slopes([5e-324])[0]
        except NotImplementedError:
            e = 0.0
        if e <= -1.0:
            raise DomainError(f"G diverges at t0 = 0: its integrand behaves "
                              f"like s**{e} there, with exponent <= -1")
    # an infinite radius is left to log_quad_tables to name
    tops, bottoms = _widths(
        manifold, profile, p, q, s0,
        [R for R in {*g_radii, *h_radii} if t0 < R < math.inf],
        [r for r, _ in j_pairs])
    g_edge, g_rest, m_g = _edge_split(
        t0, q + 1.0, g_radii, edge,
        lambda R_min: _top_width(tops, t0, R_min) is None)
    h_edge, h_rest, m_h = _edge_split(t0, gamma, h_radii, edge)

    # below a top cluster, one panel where it is complete, its farthest end
    # strictly inside the segment, and the default panels where it is
    # partial; above a bottom cluster, the default panels (see _CLUSTER);
    # with no width, or every top end rounded onto hi, the default panels
    # over the whole segment
    def top_ends(lo: float, hi: float) -> list[float]:
        w = _top_width(tops, lo, hi)
        if w is None:
            return _initial_breakpoints(lo, hi)
        top = [x for f in reversed(_CLUSTER)
               if lo < (x := hi - f * w) < hi] + [hi]
        if lo < hi - _CLUSTER[-1] * w < hi:
            return [lo] + top
        return _initial_breakpoints(lo, top[0]) + top[1:]

    def bottom_ends(lo: float, hi: float) -> list[float]:
        w = bottoms.get(lo)
        bottom = [lo] if w is None \
            else [lo] + [x for f in _CLUSTER if (x := lo + f * w) < hi]
        return bottom[:-1] + _initial_breakpoints(bottom[-1], hi)

    j_cond = [0.0] * len(j_pairs)

    def logf(x: np.ndarray, starts: list[int]) -> np.ndarray:
        ge, g, he, h, j = starts[:_J + 1]
        edges = [(lo, hi, m) for lo, hi, m in ((ge, g, m_g), (he, h, m_h))
                 if lo < hi]
        # the radii s; the edge nodes are tau, at s = t0 + eta, eta = tau**m
        s, deltas = (x.copy() if edges else x), []
        for lo, hi, m in edges:
            eta = x[lo:hi] ** m
            s[lo:hi] = t0 + eta
            deltas.append((lo, hi, profile.log_value_delta(t0, eta)))
        # log v and d = log v - log s0 from one log_value call, then on the
        # edge nodes from log_value_delta (s0 > 0 there, so d is finite)
        lv = profile.log_value(s)
        d = lv - log_s0
        for lo, hi, delta in deltas:
            d[lo:hi] = delta
            lv[lo:hi] = log_s0 + delta
        le = _log_excess_of(log_s0, lv, d)
        lw = manifold.log_warp(s)
        # G: log(g * w**q), -inf where w = 0; each table's rows in place
        out = q * le
        out[:he] += lw[:he]
        if he < j:
            # H vanishes where w = 0, and there (q - p) * le is nan for q = p
            h, h_le = out[he:j], le[he:j]
            np.multiply(h_le, q - p, out=h)
            h += lw[he:j]
            h += p * profile.log_deriv(s[he:j])
            h[~(h_le > -math.inf)] = -math.inf
        for lo, hi, m in edges:
            # ds = m * tau**(m - 1) dtau; as m > 1, a node at tau = 0 gives
            # -inf, not nan
            out[lo:hi] += math.log(m) + (m - 1.0) * np.log(x[lo:hi])
        if j < len(s):
            # the condition of J's log integrand on each node: |log g| plus
            # q |log v| amplified by v / (v - s0) = -1 / expm1(-d) in the
            # excess, as in _widths; each J table keeps the largest over
            # its nodes
            cond = -1.0 / np.expm1(-d[j:])
            cond *= np.abs(lv[j:])
            cond *= q
            cond += np.abs(lw[j:])
            ends = starts[_J:]
            rows = [t for t in range(len(j_cond)) if ends[t] < ends[t + 1]]
            for t, c in zip(rows, np.maximum.reduceat(
                    cond, [ends[t] - j for t in rows]).tolist()):
                j_cond[t] = max(j_cond[t], c)
            # J: phi**(1/(1-p)), +inf where phi = 0, from q * le in out
            out[j:] += lw[j:] + log_omega
            out[j:] /= 1.0 - p
        return out

    tables = [g_edge, (*g_rest, top_ends), h_edge, (*h_rest, top_ends)] \
        + [(r, [R], bottom_ends) for r, R in j_pairs]
    g_piece, g_res, h_piece, h_res, *j_res = log_quad_tables(
        logf, tables, rel_tol=rel_tol)

    def whole(radii, piece, results):
        # the edge piece, if any, plus the rest up to R, in one running sum
        sums = [_running_sum([*piece, res])[-1] for res in results]
        return [(log_omega + v, rel) if R > t0 else (-math.inf, 0.0)
                for R, (v, rel, _, _) in zip(radii, sums)]

    return (whole(g_radii, g_piece, g_res), whole(h_radii, h_piece, h_res),
            [(res.log_value, max(res.rel_error, _J_ROUNDING
                                 * (abs(log_omega) + c) / (p - 1.0)))
             for (res,), c in zip(j_res, j_cond)])


# ---------------------------------------------------------------------------
# rate extraction
# ---------------------------------------------------------------------------


def estimate_rate(samples, beta: float) -> RateEstimate:
    """Fit the leading growth exponent from a list of GrowthSample.

    beta = 1 - mu/p alone decides the model.  beta > 0 (sub-borderline
    decay, regime "power") fits logG = A * R**beta + B * log R + C and
    reports rate = A * beta, which on the extremal examples equals the
    threshold constant.  beta = 0 (borderline decay, regime "log") fits
    logG = A * log R + C and reports the slope A.  Requires at least 4
    samples with strictly increasing finite positive radii and finite logG,
    a finite beta >= 0, and R**beta in double range.
    """
    rs, ys = [s.R for s in samples], [s.logG for s in samples]
    if len(rs) < 4:
        raise DomainError(f"need at least 4 samples, got {len(rs)}")
    if any(map(operator.le, rs[1:], rs)):
        raise DomainError("sample radii must be strictly increasing")
    if not all(map(math.isfinite, ys)):
        raise DomainError("all samples must have finite logG; "
                          "move the window above the support radius")
    if not (0.0 <= beta < math.inf):
        raise DomainError(f"beta must be finite and nonnegative, got {beta}")
    power = beta > 0.0
    regime = "power" if power else "log"
    # the design matrix's rows as one flat list: lstsq does not return on
    # one holding inf or nan
    try:
        X = [x for r in rs for x in ((r ** beta, math.log(r), 1.0) if power
                                     else (math.log(r), 1.0))]
        finite = all(map(math.isfinite, X))
    except (OverflowError, ValueError):
        finite = False
    if not finite:
        terms = f"R**beta (beta={beta}) and log R" if power else "log R"
        raise DomainError(f"the {regime} fit needs {terms} finite at every "
                          f"sample radius in [{rs[0]}, {rs[-1]}]")
    X, y = np.array(X).reshape(len(rs), -1), np.array(ys)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return RateEstimate(rate=float(coef[0]) * (beta if power else 1.0),
                        fit_residual=float(abs(X @ coef - y).max()),
                        regime=regime, window=(rs[0], rs[-1]),
                        n_samples=len(rs))


def rate_window(example: SharpExample, rmax: float | None = None,
                num: int = 7) -> list[float]:
    """Default sampling radii for measuring an example's rate.

    Borderline examples (mu = p) use num log-spaced radii on
    [max(1e4, 100*t0), rmax or 1e6]; on the built-in grid that window keeps
    the truncation bias of the fitted rate under 0.25 percent.
    Sub-borderline examples place radii so that the log-growth variable
    kappa * beta * R**beta is log-spaced up to 1e4 (or its value at rmax),
    from 1/30 of that.  The start does not bound the truncation term
    q * log(1 - s0 * exp(-c * R**beta)), which the "power" model cannot
    absorb: at (10, 100, 0) the window starts at R = 3.66, where that term
    is about -20, and the fit gives 90.778 against 91.0 with residual 6.9.
    Radii past the largest double, a num that is not an integer, or an
    rmax that is not finite and positive, raise DomainError.  The model
    fitted to the samples follows from example.beta (see estimate_rate).
    """
    try:
        num = operator.index(num)
    except TypeError:
        raise DomainError(f"num must be an integer, got {num!r}") from None
    if num < 4:
        raise DomainError(f"need at least 4 samples, got num={num}")
    if rmax is not None:
        _check_finite_positive("rmax", rmax)
    if example.is_borderline:
        lo = max(1e4, 100.0 * example.t0)
        hi = rmax if rmax is not None else 1e6
        if hi <= lo:
            raise DomainError(f"rmax={hi} must exceed the window start {lo}")
        return geometric_grid(lo, hi, num)
    beta, kappa = example.beta, example.kappa
    x_max = kappa * beta * rmax ** beta if rmax is not None else 1e4
    # R = (x / (kappa * beta))**(1/beta), formed in log space
    log_kb = math.log(kappa * beta)
    try:
        radii = [math.exp((math.log(x) - log_kb) / beta)
                 for x in geometric_grid(x_max / 30.0, x_max, num)]
    except OverflowError:
        raise DomainError(
            f"rate window of the example at p={example.p}, q={example.q}, "
            f"mu={example.mu} reaches past the largest double") from None
    if radii[0] <= example.t0:
        raise DomainError(
            f"rate window starts at R={radii[0]:.6g}, not past the support "
            f"radius t0={example.t0:.6g}")
    return radii


def measure_rate(example: SharpExample, rmax: float | None = None,
                 num: int = 7, rel_tol: float = 1e-12) -> RateEstimate:
    """Sample the ball integral of an example and fit its growth rate."""
    samples = growth_samples(example.manifold, example.profile, example.q,
                             example.s0, rate_window(example, rmax, num),
                             rel_tol=rel_tol)
    return estimate_rate(samples, example.beta)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


def check_growth_lower_bound(example: SharpExample, R1: float, R: float,
                             eps: float = 0.0, base_tol: float = 1e-8,
                             rel_tol: float = 1e-12) -> CheckReport:
    """Lower bound for the composite functional G + const * R**mu * H.

    With the comparison constants at amplitude lam - eps, the composite
    functional Phi(R) = G(R) + c2 * R**mu * H(R) must satisfy

        mu < p:  log Phi(R) >= (c3/beta) * (R**beta - R1**beta) + log G(R1)
        mu = p:  log Phi(R) >= c5 * log(R/R1) + log G(R1),

    where the mu = p composite uses c6 * R**p instead of c2 * R**mu.  The
    default eps = 0 is valid on the extremal examples of this package (their
    amplitude deficit only strengthens the bound); for a potential that only
    reaches amplitude lam asymptotically pass eps >= its deficit at R1, for
    instance SharpExample.eps_for_radius(R1).  base_tol and the radii are
    checked first, then G and H are integrated, then eps is checked, so a
    failing integral is raised before a bad eps (see _checks).
    """
    return _checks(example, [(R1, R)], [], [], eps, base_tol, rel_tol,
                   False)[0]


def check_caccioppoli(example: SharpExample, R: float,
                      h: float | None = None, base_tol: float = 1e-8,
                      rel_tol: float = 1e-12) -> CheckReport:
    """Annulus energy estimate: const * G(R + h) >= h**p * H(R).

    The constant is k**(p*p') * (p-1)**(p-1) * 4**p / (gamma * min(1,
    gamma**(p-1))) with gamma = q - p + 1.  The default width h = R**(mu/p)
    matches the step used by the growth iteration.  base_tol is checked
    before R and h (see _checks).
    """
    return _checks(example, [], [(R, h)], [], 0.0, base_tol, rel_tol,
                   False)[0]


def check_surface_capacity(example: SharpExample, r: float, R: float,
                           base_tol: float = 1e-8,
                           rel_tol: float = 1e-12) -> CheckReport:
    """Capacity-type upper bound for H(r) from sphere integrals alone.

    H(r) <= const * (integral over (r, R) of phi(s)**(1/(1-p)) ds)**(1-p)
    with const = (p-1)**(p-1) / min(1, gamma**p).  The right side decreases
    to the optimal bound as R grows; any R > r gives a valid inequality.
    base_tol is checked before r and R (see _checks).
    """
    return _checks(example, [], [], [(r, R)], 0.0, base_tol, rel_tol,
                   False)[0]


def _checks(example: SharpExample, growth, annulus, capacity, eps: float,
            base_tol: float, rel_tol: float, named: bool) -> list[CheckReport]:
    """The growth lower bound at each (R1, R) of growth, the annulus
    estimate at each (R, h) of annulus (h None: the width R**(mu/p)) and
    the capacity bound at each (r, R) of capacity, in that order; named
    puts the radii in each name.  base_tol, then the pairs are checked;
    one _integrals call over the distinct radii fails next, then the
    comparison constants, formed only for growth pairs, raise a bad eps.
    Each tolerance is base_tol plus 10 times the sum of its integrals'
    relative errors."""
    _check_nonnegative("base_tol", base_tol)
    p, mu, t0, gamma = example.p, example.mu, example.t0, example.params.gamma
    floor = max(t0, example.potential.r_min_positive)
    for R1, R in growth:
        if not (R1 > floor):
            raise DomainError(f"R1 must exceed max(t0, positivity radius) = "
                              f"{floor}, got {R1}")
        if not (R > R1):
            raise DomainError(f"need R > R1, got R={R}, R1={R1}")
    widths = [(R, R ** (mu / p) if h is None else h) for R, h in annulus]
    for R, h in widths:
        if not (R > t0):
            raise DomainError(f"R must exceed t0={t0}, got {R}")
        if not (h > 0.0):
            raise DomainError(f"h must be positive, got {h}")
    for r, R in capacity:
        if not (t0 < r < R):
            raise DomainError(f"need t0 < r < R, got t0={t0}, r={r}, R={R}")
    g_radii = sorted({x for pair in growth for x in pair}
                     | {R + h for R, h in widths})
    h_radii = sorted({R for _, R in growth} | {R for R, _ in widths}
                     | {r for r, _ in capacity})
    G, H, J = _integrals(example.manifold, example.profile, p, example.q,
                         example.s0, g_radii, h_radii, capacity, rel_tol)
    G, H = dict(zip(g_radii, G)), dict(zip(h_radii, H))

    def report(name, label, lhs, rhs, margin, *rel_errors):
        return CheckReport(name=name + label if named else name, lhs=lhs,
                           rhs=rhs, margin=margin,
                           tolerance=base_tol + 10.0 * sum(rel_errors))

    reports = []
    if growth:
        cc = comparison_constants(example.params, eps)
    for R1, R in growth:
        (g_r1, err_r1), (g_r, err_r), (h_r, h_err) = G[R1], G[R], H[R]
        if example.is_borderline:
            log_phi = log_sum([g_r, math.log(cc.c6) + p * math.log(R) + h_r])
            rhs = cc.c5 * (math.log(R) - math.log(R1)) + g_r1
        else:
            beta = example.beta
            log_phi = log_sum([g_r, math.log(cc.c2) + mu * math.log(R) + h_r])
            rhs = (cc.c3 / beta) * (R ** beta - R1 ** beta) + g_r1
        reports.append(report("growth-lower-bound", f"(R1={R1:.4g};R={R:.4g})",
                              log_phi, rhs, log_phi - rhs,
                              err_r1, err_r, h_err))
    if widths:
        log_annulus = math.log(_annulus_constant(example.params))
    for R, h in widths:
        (g_rh, g_err), (h_r, h_err) = G[R + h], H[R]
        lhs = log_annulus + g_rh
        rhs = p * math.log(h) + h_r
        reports.append(report("annulus-caccioppoli", f"(R={R:.4g})",
                              lhs, rhs, lhs - rhs, g_err, h_err))
    for (r, R), (log_j, j_err) in zip(capacity, J):
        h_r, h_err = H[r]
        rhs = math.log((p - 1.0) ** (p - 1.0) / min(1.0, gamma ** p)) \
            + (1.0 - p) * log_j
        reports.append(report("surface-capacity", f"(r={r:.4g};R={R:.4g})",
                              h_r, rhs, rhs - h_r, h_err, (p - 1.0) * j_err))
    return reports


def default_check_pairs(example: SharpExample) -> dict[str, list]:
    """Radii used by run_inequality_suite, scaled off the support radius.

    Every radius exceeds max(t0, positivity radius) of an example built by
    build_sharp_example, as the checks require.
    """
    b = example.t0 + max(1.0, 0.2 * example.t0)
    return {
        "growth-lower-bound": [(b, 4.0 * b), (2.0 * b, 8.0 * b),
                               (b, 16.0 * b)],
        "annulus-caccioppoli": [b, 2.0 * b, 4.0 * b],
        "surface-capacity": [(b, 4.0 * b), (2.0 * b, 8.0 * b),
                             (4.0 * b, 16.0 * b)],
    }


def run_inequality_suite(example: SharpExample, eps: float = 0.0,
                         base_tol: float = 1e-8,
                         rel_tol: float = 1e-12) -> list[CheckReport]:
    """All three inequality checks at three radius pairs each.

    G, H and J are computed in one refinement over the union of the radii
    the nine checks need; each report equals its public check_* call up to
    the rounding of the shared integration segments.  A bad base_tol is
    raised first, then a failing integral, in the order G's edge, G, H's
    edge, H, J (see _integrals), then a bad eps (see _checks).
    """
    pairs = default_check_pairs(example)
    return _checks(example, pairs["growth-lower-bound"],
                   [(R, None) for R in pairs["annulus-caccioppoli"]],
                   pairs["surface-capacity"], eps, base_tol, rel_tol, True)
