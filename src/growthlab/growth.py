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

A segment of G spanning more than 96 e-fold widths w of its integrand at
its top R starts with panel ends at R - w * (48, 24, 12, 6, 3, 1.5), where
nearly all of its mass lies, so a rate window takes one or two rounds; G
has no edge table where its first segment does (see _top_width).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

# growth re-exports the sphere integrand, CheckReport and the l1 verdict
from .models import (ModelManifold, RadialProfile,  # noqa: F401
                     _log_excess_of, _log_level, _support_start,
                     geometric_grid, log_sphere_integral, sphere_log_slope)
from .params import (CheckReport, DomainError, QuadratureError,  # noqa: F401
                     _annulus_constant, _check_finite_positive,
                     _check_nonnegative, classify_l1_condition,
                     comparison_constants)
from .quadrature import _log_combine, log_quad_tables, log_sum
from .sharp import SharpExample

# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthSample:
    """One measurement of a ball functional: radius, log value, error."""

    R: float
    logG: float
    quad_error: float


@dataclass(frozen=True)
class RateEstimate:
    """Leading growth exponent fitted from samples of a log functional.

    regime "power" (beta > 0): logG was modelled as
    A * R**beta + B * log R + C and rate = A * beta, the exponent in
    log G ~ (rate/beta) * R**beta.  regime "log" (beta = 0): logG was
    modelled as A * log R + C and rate = A.  fit_residual is the worst
    absolute misfit of the model on the samples.
    """

    rate: float
    fit_residual: float
    regime: str
    window: tuple[float, float]
    n_samples: int


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
    is a table of its own, in a variable that removes the singularity.
    That table comes before the rest in the one pass of _integrals, so its
    failure is the one raised when both fail.  On the leading piece the
    excess v - s0 is expanded around the computed edge through the
    profile's log_value_delta, treating v(t0) = s0 as exact: the
    difference log v(s) - log s0 is needed at separations far below the
    cancellation floor of direct subtraction.  (The value of a q < p
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
    if not (q > 0.0):
        raise DomainError(f"q must be positive, got {q}")
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
    its first segment gets top-end panels (see _top_width).  With edge set,
    a radius above t0, R_min the smallest such radius, and near(R_min)
    true, the edge piece over (t0, t1] with
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


# the top-end panel ends of a long segment of G, in e-fold widths below R
_TOP = (48.0, 24.0, 12.0, 6.0, 3.0, 1.5)


def _top_width(manifold: ModelManifold, profile: RadialProfile, q: float,
               lo: float, hi: float) -> float | None:
    """The e-fold width w = 1 / (d log(g * v**q) / ds) of G's integrand at
    hi when [lo, hi] spans more than 2 * _TOP[0] widths; else None, as for
    a slope not known, finite and positive.  Where log(g * v**q) is concave
    the integrand then grows by over e**96 across [lo, hi], so its lower
    part carries no weight and G needs no edge below such a first segment."""
    try:
        w = 1.0 / (manifold.dlog_warp(hi) + q * profile.dlog(hi))
    except (OverflowError, ZeroDivisionError, NotImplementedError):
        return None
    return w if w > 0.0 and hi - 2.0 * _TOP[0] * w > lo else None


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
    radii (see _edge_split).  On edge nodes the excess v - s0 is expanded
    around t0 through the profile's log_value_delta, treating v(t0) = s0 as
    exact, and log_value is not called.  Without edge tables the same
    integrand calls log_value on every node.  p may be None when only
    G is asked for.  The tables are G's edge, G, H's edge, H, then J, so
    when several integrals fail, the error raised is the first in that
    order.
    """
    gamma = None
    if h_radii:
        if not (p > 1.0):
            raise DomainError(f"p must exceed 1, got {p}")
        gamma = q - p + 1.0
        if not (gamma > 0.0):
            raise DomainError(f"q - p + 1 must be positive, got {gamma}")
    log_s0 = _log_level(s0)
    log_omega = math.log(manifold.omega)
    t0 = _support_start(profile, s0)
    edge = s0 > 0.0 and t0 > profile.t_min
    g_edge, g_rest, m_g = _edge_split(
        t0, q + 1.0, g_radii, edge,
        lambda R_min: _top_width(manifold, profile, q, t0, R_min) is None)
    h_edge, h_rest, m_h = _edge_split(t0, gamma, h_radii, edge)

    def top_ends(lo: float, hi: float) -> list[float]:
        w = _top_width(manifold, profile, q, lo, hi)
        return [hi] if w is None else [hi - f * w for f in _TOP] + [hi]

    def logf(x: np.ndarray, starts: list[int]) -> np.ndarray:
        ge, g, he, h, j = starts[:_J + 1]
        edges = [(lo, hi, m) for lo, hi, m in ((ge, g, m_g), (he, h, m_h))
                 if lo < hi]
        # the radii s, log v and d = log v - log s0 at every node; the edge
        # nodes are tau, at s = t0 + tau**m, and s0 > 0 where there is an
        # edge, so d is finite there
        s, lv, d = x.copy(), np.empty_like(x), np.empty_like(x)
        for lo, hi, m in edges:
            eta = x[lo:hi] ** m
            s[lo:hi] = t0 + eta
            d[lo:hi] = profile.log_value_delta(t0, eta)
            lv[lo:hi] = log_s0 + d[lo:hi]
        # log v of the other nodes, in one call, and none if there are none
        rest = np.concatenate((x[g:he], x[h:]))
        if rest.size:
            lv_rest = profile.log_value(rest)
            lv[g:he], lv[h:] = lv_rest[:he - g], lv_rest[he - g:]
            d[g:he], d[h:] = lv[g:he] - log_s0, lv[h:] - log_s0
        le = _log_excess_of(log_s0, lv, d)
        lw = manifold.log_warp(s)
        # G: log(g * w**q), -inf where w = 0
        out = lw + q * le
        if he < j:
            # H vanishes where w = 0, and there (q - p) * le is nan for q = p
            with np.errstate(invalid="ignore"):
                out[he:j] = np.where(
                    le[he:j] > -math.inf,
                    lw[he:j] + (q - p) * le[he:j]
                    + p * profile.log_deriv(s[he:j]), -math.inf)
        for lo, hi, m in edges:
            # ds = m * tau**(m - 1) dtau; as m > 1, a node at tau = 0 gives
            # -inf, not nan
            with np.errstate(divide="ignore"):
                out[lo:hi] += math.log(m) + (m - 1.0) * np.log(x[lo:hi])
        if j < len(s):
            # J: phi**(1/(1-p)), +inf where phi = 0
            out[j:] = -((log_omega + lw[j:]) + q * le[j:]) / (p - 1.0)
        return out

    tables = [g_edge, (*g_rest, top_ends), h_edge, h_rest] \
        + [(r, [R]) for r, R in j_pairs]
    g_piece, g_res, h_piece, h_res, *j_res = log_quad_tables(
        logf, tables, rel_tol=rel_tol)

    def whole(radii, piece, results):
        # the edge piece, empty without an edge, plus the rest up to R
        return [(log_omega + v, rel) for v, rel in (
            _log_combine(piece + [res]) if R > t0 else (-math.inf, 0.0)
            for R, res in zip(radii, results))]

    return (whole(g_radii, g_piece, g_res), whole(h_radii, h_piece, h_res),
            [(res.log_value, res.rel_error) for (res,) in j_res])


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
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise DomainError("sample radii must be strictly increasing")
    if not all(map(math.isfinite, ys)):
        raise DomainError("all samples must have finite logG; "
                          "move the window above the support radius")
    if not (0.0 <= beta < math.inf):
        raise DomainError(f"beta must be finite and nonnegative, got {beta}")
    power = beta > 0.0
    regime = "power" if power else "log"
    # lstsq does not return on a design matrix holding inf or nan
    try:
        X = np.array([([r ** beta] if power else [])
                      + [math.log(r), 1.0] for r in rs])
        finite = np.isfinite(X).all()
    except (OverflowError, ValueError):
        finite = False
    if not finite:
        terms = f"R**beta (beta={beta}) and log R" if power else "log R"
        raise DomainError(f"the {regime} fit needs {terms} finite at every "
                          f"sample radius in [{rs[0]}, {rs[-1]}]")
    coef, *_ = np.linalg.lstsq(X, np.array(ys), rcond=None)
    rate = float(coef[0]) * (beta if power else 1.0)
    resid = float(np.max(np.abs(X @ coef - np.array(ys))))
    return RateEstimate(rate=rate, fit_residual=resid, regime=regime,
                        window=(rs[0], rs[-1]), n_samples=len(rs))


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


def _check_tol(base_tol: float, *rel_errors: float) -> float:
    _check_nonnegative("base_tol", base_tol)
    return base_tol + 10.0 * sum(rel_errors)


def _tables(example: SharpExample, g_radii, h_radii, j_pairs,
            rel_tol: float) -> tuple[dict, dict, list]:
    """G as radius -> GrowthSample and H as radius -> (log H, relative
    error) over the distinct radii given, and J over each pair of j_pairs,
    from one _integrals call."""
    g_radii, h_radii = sorted(set(g_radii)), sorted(set(h_radii))
    G, H, J = _integrals(example.manifold, example.profile, example.p,
                         example.q, example.s0, g_radii, h_radii, j_pairs,
                         rel_tol)
    return ({R: GrowthSample(R, *g) for R, g in zip(g_radii, G)},
            dict(zip(h_radii, H)), J)


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
    instance SharpExample.eps_for_radius(R1).
    """
    t0 = example.t0
    floor = max(t0, example.potential.r_min_positive)
    if not (R1 > floor):
        raise DomainError(
            f"R1 must exceed max(t0, positivity radius) = {floor}, got {R1}")
    if not (R > R1):
        raise DomainError(f"need R > R1, got R={R}, R1={R1}")
    cc = comparison_constants(example.params, eps)
    G, H, _ = _tables(example, [R1, R], [R], [], rel_tol)
    return _growth_lower_bound(example, cc, R1, R, G, H, base_tol)


def _growth_lower_bound(example: SharpExample, cc, R1: float, R: float,
                        G: dict, H: dict, base_tol: float) -> CheckReport:
    p = example.p
    g_r1, g_r = G[R1], G[R]
    h_r, h_err = H[R]
    if example.is_borderline:
        log_phi = log_sum([g_r.logG,
                           math.log(cc.c6) + p * math.log(R) + h_r])
        rhs = cc.c5 * (math.log(R) - math.log(R1)) + g_r1.logG
    else:
        beta = example.beta
        log_phi = log_sum([g_r.logG,
                           math.log(cc.c2) + example.mu * math.log(R) + h_r])
        rhs = (cc.c3 / beta) * (R ** beta - R1 ** beta) + g_r1.logG
    tol = _check_tol(base_tol, g_r1.quad_error, g_r.quad_error, h_err)
    return CheckReport(name="growth-lower-bound", lhs=log_phi, rhs=rhs,
                       margin=log_phi - rhs, tolerance=tol)


def check_caccioppoli(example: SharpExample, R: float,
                      h: float | None = None, base_tol: float = 1e-8,
                      rel_tol: float = 1e-12) -> CheckReport:
    """Annulus energy estimate: const * G(R + h) >= h**p * H(R).

    The constant is k**(p*p') * (p-1)**(p-1) * 4**p / (gamma * min(1,
    gamma**(p-1))) with gamma = q - p + 1.  The default width h = R**(mu/p)
    matches the step used by the growth iteration.
    """
    if not (R > example.t0):
        raise DomainError(f"R must exceed t0={example.t0}, got {R}")
    if h is None:
        h = R ** (example.mu / example.p)
    if not (h > 0.0):
        raise DomainError(f"h must be positive, got {h}")
    G, H, _ = _tables(example, [R + h], [R], [], rel_tol)
    return _caccioppoli(example, R, h, G, H, base_tol)


def _caccioppoli(example: SharpExample, R: float, h: float, G: dict,
                 H: dict, base_tol: float) -> CheckReport:
    g_rh = G[R + h]
    h_r, h_err = H[R]
    lhs = math.log(_annulus_constant(example.params)) + g_rh.logG
    rhs = example.p * math.log(h) + h_r
    tol = _check_tol(base_tol, g_rh.quad_error, h_err)
    return CheckReport(name="annulus-caccioppoli", lhs=lhs, rhs=rhs,
                       margin=lhs - rhs, tolerance=tol)


def check_surface_capacity(example: SharpExample, r: float, R: float,
                           base_tol: float = 1e-8,
                           rel_tol: float = 1e-12) -> CheckReport:
    """Capacity-type upper bound for H(r) from sphere integrals alone.

    H(r) <= const * (integral over (r, R) of phi(s)**(1/(1-p)) ds)**(1-p)
    with const = (p-1)**(p-1) / min(1, gamma**p).  The right side decreases
    to the optimal bound as R grows; any R > r gives a valid inequality.
    """
    if not (example.t0 < r < R):
        raise DomainError(
            f"need t0 < r < R, got t0={example.t0}, r={r}, R={R}")
    _, H, (J,) = _tables(example, [], [r], [(r, R)], rel_tol)
    return _surface_capacity(example, r, H, J, base_tol)


def _surface_capacity(example: SharpExample, r: float, H: dict,
                      J: tuple[float, float], base_tol: float) -> CheckReport:
    p, gamma = example.p, example.params.gamma
    h_r, h_err = H[r]
    log_j, j_err = J
    pref = (p - 1.0) ** (p - 1.0) / min(1.0, gamma ** p)
    rhs = math.log(pref) + (1.0 - p) * log_j
    tol = _check_tol(base_tol, h_err, (p - 1.0) * j_err)
    return CheckReport(name="surface-capacity", lhs=h_r, rhs=rhs,
                       margin=rhs - h_r, tolerance=tol)


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
    the rounding of the shared integration segments.  The integrals come
    before the comparison constants, so they fail first, in the order G's
    edge, G, H's edge, H, J (see _integrals); then a bad eps raises its
    DomainError.
    """
    pairs = default_check_pairs(example)
    growth = pairs["growth-lower-bound"]
    annulus = [(r, r ** (example.mu / example.p))
               for r in pairs["annulus-caccioppoli"]]
    capacity = pairs["surface-capacity"]
    g_radii = [x for pair in growth for x in pair] + [r + h for r, h in annulus]
    h_radii = [r for _, r in growth] + [r for r, _ in annulus] \
        + [r for r, _ in capacity]
    G, H, J = _tables(example, g_radii, h_radii, capacity, rel_tol)
    cc = comparison_constants(example.params, eps)
    reports = []
    for r1, r in growth:
        rep = _growth_lower_bound(example, cc, r1, r, G, H, base_tol)
        reports.append(replace(rep, name=f"{rep.name}(R1={r1:.4g};R={r:.4g})"))
    for r, h in annulus:
        rep = _caccioppoli(example, r, h, G, H, base_tol)
        reports.append(replace(rep, name=f"{rep.name}(R={r:.4g})"))
    for (r1, r), j in zip(capacity, J):
        rep = _surface_capacity(example, r1, H, j, base_tol)
        reports.append(replace(rep, name=f"{rep.name}(r={r1:.4g};R={r:.4g})"))
    return reports
