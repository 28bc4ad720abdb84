"""Growth functionals, rate extraction and integral-inequality checks.

For a model surface with warp g, a profile v and a truncation level s0, set
w = (v - s0)+ and t0 = v^{-1}(s0).  The three functionals measured here are

    phi(s) = omega * g(s) * w(s)**q                (sphere integral)
    G(R)   = integral of phi over (t0, R)          (ball integral)
    H(R)   = integral of omega * g * w**(q-p) * (v')**p over (t0, R),

all carried as logarithms.  On the extremal examples G grows at exactly the
threshold rate, and the comparison constants from :mod:`growthlab.params`
turn G and H into verifiable inequalities: a lower bound for the composite
functional G + const * R**mu * H, an annulus estimate bounding H by G on a
slightly larger ball, and a capacity-type upper bound for H in terms of the
sphere integrals alone.  Each check reports both sides, the margin in the
direction that must be nonnegative, and a tolerance built from the
quadrature error estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ModelManifold, RadialProfile
from .params import DomainError, _annulus_constant, comparison_constants
from .quadrature import (_log_combine, log_quad, log_quad_cumulative,
                         log_sum)
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

    regime "power": logG was modelled as A * R**beta + B * log R + C and
    rate = A * beta, the exponent in log G ~ (rate/beta) * R**beta.
    regime "log":   logG was modelled as A * log R + C and rate = A.
    fit_residual is the worst absolute misfit of the model on the samples.
    """

    rate: float
    fit_residual: float
    regime: str
    window: tuple[float, float]
    n_samples: int


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check; margin >= -tolerance means passed.

    lhs and rhs are the two sides in log scale; margin is oriented so that
    the claimed inequality corresponds to margin >= 0.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tolerance: float


# ---------------------------------------------------------------------------
# the three functionals
# ---------------------------------------------------------------------------


def _log_excess(profile: RadialProfile, log_s0: float, s: float) -> float:
    """log(v(s) - s0) computed from log v(s) without overflow; -inf if <= 0."""
    lv = profile.log_value(s)
    if log_s0 == -math.inf:
        return lv
    d = lv - log_s0
    if d <= 0.0:
        return -math.inf
    if d < 0.7:
        # v - s0 = s0 * (exp(d) - 1), accurate when v is close to s0
        return log_s0 + math.log(math.expm1(d))
    return lv + math.log1p(-math.exp(-d))


def _log_level(s0: float) -> float:
    if s0 < 0.0:
        raise DomainError(f"s0 must be nonnegative, got {s0}")
    return math.log(s0) if s0 > 0.0 else -math.inf


def _support_start(profile: RadialProfile, s0: float) -> float:
    """Radius where v first exceeds s0 (clamped to the profile domain)."""
    if s0 <= 0.0:
        return profile.t_min
    return max(profile.level_radius(s0), profile.t_min)


def log_sphere_integral(manifold: ModelManifold, profile: RadialProfile,
                        q: float, s0: float, s: float) -> float:
    """log of omega * g(s) * (v(s) - s0)**q; -inf where v <= s0."""
    if not (q > 0.0):
        raise DomainError(f"q must be positive, got {q}")
    le = _log_excess(profile, _log_level(s0), s)
    if le == -math.inf:
        return -math.inf
    return manifold.log_sphere_area(s) + q * le


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

    Returns (log value, relative error estimate).  For q < p the integrand
    blows up like (s - t0)**(q - p) at the support edge; the leading piece
    over (t0, t1) is integrated after the substitution s = t0 + tau**(1/gamma)
    with gamma = q - p + 1, which removes the singularity exactly, and the
    rest over (t1, R) directly.  The split point is t1 = t0 + min(1,
    (R - t0)/2).  On the leading piece the excess v - s0 is expanded around
    the computed edge through the profile's log_value_delta, treating
    v(t0) = s0 as exact: the difference log v(s) - log s0 is needed at
    separations far below the cancellation floor of direct subtraction.
    (The value of a q < p integral is inherently sensitive to the edge
    location at relative order ulp**gamma; the margins built from it are
    insensitive to that.)
    """
    return _log_energy_table(manifold, profile, p, q, s0, [R],
                             rel_tol=rel_tol)[0]


def growth_samples(manifold: ModelManifold, profile: RadialProfile,
                   q: float, s0: float, radii,
                   rel_tol: float = 1e-12) -> list[GrowthSample]:
    """Ball integrals G(R) for every radius in an increasing grid.

    The integral runs once from the support start t0 through the grid:
    G at each radius is G at the previous one plus the integral over the
    gap between them.  Radii at or below t0 give logG = -inf with zero
    error.
    """
    if not (q > 0.0):
        raise DomainError(f"q must be positive, got {q}")
    radii = [float(R) for R in radii]
    if not radii:
        raise DomainError("radius grid is empty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly increasing")
    log_s0 = _log_level(s0)

    def logf(s: float) -> float:
        le = _log_excess(profile, log_s0, s)
        if le == -math.inf:
            return -math.inf
        return manifold.log_warp(s) + q * le

    results = log_quad_cumulative(logf, _support_start(profile, s0), radii,
                                  rel_tol=rel_tol)
    log_omega = math.log(manifold.omega)
    return [GrowthSample(R=R, logG=log_omega + res.log_value,
                         quad_error=res.rel_error)
            for R, res in zip(radii, results)]


def _log_energy_table(manifold: ModelManifold, profile: RadialProfile,
                      p: float, q: float, s0: float, radii,
                      rel_tol: float = 1e-12) -> list[tuple[float, float]]:
    """(log H(R), relative error) for every R of a nondecreasing list.

    Like growth_samples, one cumulative pass through the radii.  With a
    singular edge (see log_energy_integral) the substituted leading piece
    over (t0, t1) is integrated once, with t1 = t0 + min(1, (R_min - t0)/2)
    from the smallest radius R_min above t0, and shared by every radius.
    """
    if not (p > 1.0):
        raise DomainError(f"p must exceed 1, got {p}")
    gamma = q - p + 1.0
    if not (gamma > 0.0):
        raise DomainError(f"q - p + 1 must be positive, got {gamma}")
    log_s0 = _log_level(s0)
    t0 = _support_start(profile, s0)

    def logf(s: float) -> float:
        le = _log_excess(profile, log_s0, s)
        if le == -math.inf:
            return -math.inf
        return manifold.log_warp(s) + (q - p) * le + p * profile.log_deriv(s)

    log_omega = math.log(manifold.omega)
    genuine_edge = s0 > 0.0 and t0 > profile.t_min
    above = [R for R in radii if R > t0]
    if q >= p or not genuine_edge or not above:
        return [(log_omega + res.log_value, res.rel_error)
                for res in log_quad_cumulative(logf, t0, radii,
                                               rel_tol=rel_tol)]

    # Singular edge: integrate over tau in (0, (t1-t0)**gamma] with
    # s = t0 + tau**(1/gamma), ds = (1/gamma) * tau**(1/gamma - 1) dtau.
    t1 = t0 + min(1.0, 0.5 * (min(above) - t0))

    def logf_sub(tau: float) -> float:
        eta = tau ** (1.0 / gamma)
        d = profile.log_value_delta(t0, eta)
        if d <= 0.0:
            return -math.inf
        le = log_s0 + math.log(math.expm1(d))
        s = t0 + eta
        return manifold.log_warp(s) + (q - p) * le \
            + p * profile.log_deriv(s) \
            + (1.0 / gamma - 1.0) * math.log(tau) - math.log(gamma)

    res_a = log_quad(logf_sub, 0.0, (t1 - t0) ** gamma, rel_tol=rel_tol)
    table = []
    for R, res_b in zip(radii, log_quad_cumulative(logf, t1, radii,
                                                    rel_tol=rel_tol)):
        if R <= t0:
            table.append((-math.inf, 0.0))
        else:
            log_value, rel = _log_combine([res_a, res_b])
            table.append((log_omega + log_value, rel))
    return table


# ---------------------------------------------------------------------------
# rate extraction
# ---------------------------------------------------------------------------


def _extract_pairs(samples) -> tuple[list[float], list[float]]:
    rs, ys = [], []
    for s in samples:
        if isinstance(s, GrowthSample):
            rs.append(s.R)
            ys.append(s.logG)
        else:
            r, y = s
            rs.append(float(r))
            ys.append(float(y))
    return rs, ys


def estimate_rate(samples, regime: str = "power",
                  beta: float | None = None) -> RateEstimate:
    """Fit the leading growth exponent from (R, logG) samples.

    regime "power" (sub-borderline decay, beta = 1 - mu/p > 0) fits
    logG = A * R**beta + B * log R + C and reports rate = A * beta, which on
    the extremal examples equals the threshold constant.  regime "log"
    (borderline decay or Euclidean sphere slopes) fits logG = A * log R + C
    and reports the slope A.  Requires at least 4 samples with strictly
    increasing radii and finite logG.
    """
    rs, ys = _extract_pairs(samples)
    if len(rs) < 4:
        raise DomainError(f"need at least 4 samples, got {len(rs)}")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise DomainError("sample radii must be strictly increasing")
    if not all(map(math.isfinite, ys)):
        raise DomainError("all samples must have finite logG; "
                          "move the window above the support radius")
    if regime == "power":
        if beta is None:
            raise DomainError("regime 'power' needs beta")
        if not (beta > 0.0):
            raise DomainError(
                f"beta must be positive in the power regime, got {beta}; "
                "use regime='log' when beta is 0")
        X = np.array([[r ** beta, math.log(r), 1.0] for r in rs])
        coef, *_ = np.linalg.lstsq(X, np.array(ys), rcond=None)
        rate = float(coef[0]) * beta
    elif regime == "log":
        X = np.array([[math.log(r), 1.0] for r in rs])
        coef, *_ = np.linalg.lstsq(X, np.array(ys), rcond=None)
        rate = float(coef[0])
    else:
        raise DomainError(f"unknown regime {regime!r}; use 'power' or 'log'")
    resid = float(np.max(np.abs(X @ coef - np.array(ys))))
    return RateEstimate(rate=rate, fit_residual=resid, regime=regime,
                        window=(rs[0], rs[-1]), n_samples=len(rs))


def rate_window(example: SharpExample, rmax: float | None = None,
                num: int = 7) -> tuple[list[float], str]:
    """Default sampling radii and regime for measuring an example's rate.

    Borderline examples (mu = p) use num log-spaced radii on
    [max(1e4, 100*t0), rmax or 1e6] with the "log" regime; on the built-in
    grid that window keeps the truncation bias of the fitted rate under
    0.25 percent.  Sub-borderline examples place radii so that the
    log-growth variable kappa * beta * R**beta is log-spaced up to 1e4 (or
    its value at rmax), where truncation corrections are far below double
    precision; a window whose radii pass the largest double raises
    DomainError.
    """
    if num < 4:
        raise DomainError(f"need at least 4 samples, got num={num}")
    if example.is_borderline:
        lo = max(1e4, 100.0 * example.t0)
        hi = rmax if rmax is not None else 1e6
        if hi <= lo:
            raise DomainError(f"rmax={hi} must exceed the window start {lo}")
        return np.geomspace(lo, hi, num).tolist(), "log"
    beta, kappa = example.beta, example.kappa
    x_max = kappa * beta * rmax ** beta if rmax is not None else 1e4
    # R = (x / (kappa * beta))**(1/beta), formed in log space
    log_kb = math.log(kappa * beta)
    try:
        radii = [math.exp((math.log(x) - log_kb) / beta)
                 for x in np.geomspace(x_max / 30.0, x_max, num).tolist()]
    except OverflowError:
        raise DomainError(
            f"rate window of the example at p={example.p}, q={example.q}, "
            f"mu={example.mu} reaches past the largest double") from None
    if radii[0] <= example.t0:
        raise DomainError(f"rmax={rmax} puts the window at the support edge")
    return radii, "power"


def measure_rate(example: SharpExample, rmax: float | None = None,
                 num: int = 7, rel_tol: float = 1e-12) -> RateEstimate:
    """Sample the ball integral of an example and fit its growth rate."""
    radii, regime = rate_window(example, rmax=rmax, num=num)
    samples = growth_samples(example.manifold, example.profile, example.q,
                             example.s0, radii, rel_tol=rel_tol)
    beta = example.beta if regime == "power" else None
    return estimate_rate(samples, regime=regime, beta=beta)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


def _check_tol(base_tol: float, *rel_errors: float) -> float:
    if not (base_tol >= 0.0):
        raise DomainError(f"base_tol must be nonnegative, got {base_tol}")
    return base_tol + 10.0 * sum(rel_errors)


def _g_table(example: SharpExample, radii, rel_tol: float) -> dict:
    """radius -> GrowthSample of G, from one pass over the distinct radii."""
    radii = sorted(set(radii))
    return dict(zip(radii, growth_samples(
        example.manifold, example.profile, example.q, example.s0, radii,
        rel_tol=rel_tol)))


def _h_table(example: SharpExample, radii, rel_tol: float) -> dict:
    """radius -> (log H, relative error), from one pass over the radii."""
    radii = sorted(set(radii))
    return dict(zip(radii, _log_energy_table(
        example.manifold, example.profile, example.p, example.q, example.s0,
        radii, rel_tol=rel_tol)))


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
    return _growth_lower_bound(example, cc, R1, R,
                               _g_table(example, [R1, R], rel_tol),
                               _h_table(example, [R], rel_tol), base_tol)


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
    margin = log_phi - rhs
    return CheckReport(name="growth-lower-bound", lhs=log_phi, rhs=rhs,
                       margin=margin, passed=margin >= -tol, tolerance=tol)


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
    return _caccioppoli(example, R, h, _g_table(example, [R + h], rel_tol),
                        _h_table(example, [R], rel_tol), base_tol)


def _caccioppoli(example: SharpExample, R: float, h: float, G: dict,
                 H: dict, base_tol: float) -> CheckReport:
    p, q = example.p, example.q
    pref = _annulus_constant(p, q - p + 1.0, example.params.k)
    g_rh = G[R + h]
    h_r, h_err = H[R]
    lhs = math.log(pref) + g_rh.logG
    rhs = p * math.log(h) + h_r
    tol = _check_tol(base_tol, g_rh.quad_error, h_err)
    margin = lhs - rhs
    return CheckReport(name="annulus-caccioppoli", lhs=lhs, rhs=rhs,
                       margin=margin, passed=margin >= -tol, tolerance=tol)


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
    return _surface_capacity(example, r, R, _h_table(example, [r], rel_tol),
                             base_tol, rel_tol)


def _surface_capacity(example: SharpExample, r: float, R: float, H: dict,
                      base_tol: float, rel_tol: float) -> CheckReport:
    p, q = example.p, example.q
    gamma = q - p + 1.0
    man, prof = example.manifold, example.profile
    h_r, h_err = H[r]

    def logf(s: float) -> float:
        return -log_sphere_integral(man, prof, q, example.s0, s) / (p - 1.0)

    res_j = log_quad(logf, r, R, rel_tol=rel_tol)
    pref = (p - 1.0) ** (p - 1.0) / min(1.0, gamma ** p)
    rhs = math.log(pref) + (1.0 - p) * res_j.log_value
    tol = _check_tol(base_tol, h_err, (p - 1.0) * res_j.rel_error)
    margin = rhs - h_r
    return CheckReport(name="surface-capacity", lhs=h_r, rhs=rhs,
                       margin=margin, passed=margin >= -tol, tolerance=tol)


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

    G and H are tabulated once over the union of the radii the nine checks
    need; each report equals its public check_* call up to the rounding of
    the shared integration segments.
    """
    pairs = default_check_pairs(example)
    growth = pairs["growth-lower-bound"]
    annulus = [(r, r ** (example.mu / example.p))
               for r in pairs["annulus-caccioppoli"]]
    capacity = pairs["surface-capacity"]
    G = _g_table(example, [x for pair in growth for x in pair]
                 + [r + h for r, h in annulus], rel_tol)
    H = _h_table(example, [r for _, r in growth] + [r for r, _ in annulus]
                 + [r for r, _ in capacity], rel_tol)
    cc = comparison_constants(example.params, eps)
    reports = []
    for r1, r in growth:
        rep = _growth_lower_bound(example, cc, r1, r, G, H, base_tol)
        reports.append(_tag(rep, f"(R1={r1:.4g};R={r:.4g})"))
    for r, h in annulus:
        rep = _caccioppoli(example, r, h, G, H, base_tol)
        reports.append(_tag(rep, f"(R={r:.4g})"))
    for r1, r in capacity:
        rep = _surface_capacity(example, r1, r, H, base_tol, rel_tol)
        reports.append(_tag(rep, f"(r={r1:.4g};R={r:.4g})"))
    return reports


def _tag(report: CheckReport, suffix: str) -> CheckReport:
    return CheckReport(name=report.name + suffix, lhs=report.lhs,
                       rhs=report.rhs, margin=report.margin,
                       passed=report.passed, tolerance=report.tolerance)


# ---------------------------------------------------------------------------
# integrability classification and slow growth helpers
# ---------------------------------------------------------------------------


def sphere_log_slope(manifold: ModelManifold, profile: RadialProfile,
                     q: float, s0: float, rmin: float, rmax: float,
                     num: int = 9) -> float:
    """Log-log slope of the sphere integral phi over [rmin, rmax].

    Returns -inf when phi vanishes on the whole window.  Mixed windows
    (partly inside, partly outside the support of (v - s0)+) are rejected;
    move the window past the support radius instead.
    """
    if not (0.0 < rmin < rmax):
        raise DomainError(f"need 0 < rmin < rmax, got [{rmin}, {rmax}]")
    if num < 2:
        raise DomainError(f"need at least 2 points, got {num}")
    radii = np.geomspace(rmin, rmax, num).tolist()
    vals = [log_sphere_integral(manifold, profile, q, s0, r) for r in radii]
    if all(v == -math.inf for v in vals):
        return -math.inf
    if any(v == -math.inf for v in vals):
        raise DomainError("window straddles the support radius; move rmin up")
    X = np.array([[math.log(r), 1.0] for r in radii])
    coef, *_ = np.linalg.lstsq(X, np.array(vals), rcond=None)
    return float(coef[0])


def classify_l1_condition(sphere_log_slope: float, p: float,
                          finite_radius_infinite: bool = False) -> str:
    """Classify the reciprocal integrability of the sphere integral.

    The dichotomy depends on alpha = sphere_log_slope: the integral of
    phi**(1/(1-p)) over (r, inf) diverges for every r exactly when
    alpha / (p-1) <= 1 ("condition_holds"; alpha = -inf, a vanishing
    integrand, counts as holding).  When alpha / (p-1) > 1 the tail
    integral converges, and the condition can only be rescued near the
    origin: pass finite_radius_infinite=True when phi vanishes on some ball
    (so the integral is infinite for small r) to obtain
    "holds_only_for_small_r"; otherwise the verdict is "condition_fails".
    The distinction matters because the vanishing conclusions require the
    divergence for every radius, not just for some.
    """
    if not (p > 1.0):
        raise DomainError(f"p must exceed 1, got {p}")
    if math.isnan(sphere_log_slope):
        raise DomainError("sphere_log_slope is nan")
    if sphere_log_slope / (p - 1.0) <= 1.0:
        return "condition_holds"
    if finite_radius_infinite:
        return "holds_only_for_small_r"
    return "condition_fails"


def iterated_log(n: int, t: float) -> float:
    """Product of the first n iterated logarithms of t; 1 for n = 0.

    iterated_log(n, t) = log(t) * loglog(t) * ... * log^(n)(t).  Every
    iterate must be strictly positive; the first depth at which the iterate
    drops to or below zero is reported in the error.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"depth must be a nonnegative integer, got {n}")
    prod = 1.0
    cur = float(t)
    for depth in range(1, n + 1):
        if not (cur > 0.0):
            raise DomainError(
                f"iterated log of depth {depth} needs a positive argument, "
                f"got {cur} after {depth - 1} logs of {t}")
        cur = math.log(cur)
        if not (cur > 0.0):
            raise DomainError(
                f"iterated log of depth {depth} of {t} is {cur}, "
                "below the positive domain")
        prod *= cur
    return prod
