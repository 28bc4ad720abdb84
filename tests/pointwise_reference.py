"""The per-radius formulas of the pointwise layer as growthlab 0.1.0 had
them, one method per quantity, kept as a test-only reference.

The library now forms log v, v'/v and v''/v of one radius in one call, and
subsolution_residual inlines the operator terms.  The tests assert that
every value still equals these expressions bit for bit, so no quantity
drifts from the formula it had, not even in the last bit.
"""

import math

from growthlab import ExpPower, PHarmonicRn, PowerLaw, SharpPotential


def log_value(profile, t: float) -> float:
    if isinstance(profile, PowerLaw):
        return profile.c * math.log(t)
    if isinstance(profile, ExpPower):
        return profile.c * t ** profile.beta
    if isinstance(profile, PHarmonicRn):
        a = profile.alpha
        return a * math.log(t) + math.log1p(-t ** (-a))
    raise TypeError(profile)


def dlog(profile, t: float) -> float:
    if isinstance(profile, PowerLaw):
        return profile.c / t
    if isinstance(profile, ExpPower):
        return profile.c * profile.beta * t ** (profile.beta - 1.0)
    if isinstance(profile, PHarmonicRn):
        a = profile.alpha
        return a / (t * (1.0 - t ** (-a)))
    raise TypeError(profile)


def d2_over_v(profile, t: float) -> float:
    if isinstance(profile, PowerLaw):
        return profile.c * (profile.c - 1.0) / (t * t)
    if isinstance(profile, ExpPower):
        c, b = profile.c, profile.beta
        return c * b * t ** (b - 2.0) * ((b - 1.0) + c * b * t ** b)
    if isinstance(profile, PHarmonicRn):
        a = profile.alpha
        return a * (a - 1.0) / (t * t * (1.0 - t ** (-a)))
    raise TypeError(profile)


def potential(pot, r: float) -> float:
    """SharpPotential.__call__ at an r where no power overflows."""
    if not isinstance(pot, SharpPotential):
        return float(pot(r))
    if pot.mu == pot.p:
        return pot.lam / r ** pot.p
    return pot.lam * (1.0 - pot.D / r ** pot.beta) / r ** pot.mu


def scaled_terms(manifold, profile, p: float, r: float):
    d1 = dlog(profile, r)
    d2 = d2_over_v(profile, r)
    return (p - 1.0) * d1 ** (p - 2.0) * d2, dlog(manifold.warp, r) * d1 ** (p - 1.0)


def p_laplacian_scaled(manifold, profile, p: float, r: float) -> float:
    t1, t2 = scaled_terms(manifold, profile, p, r)
    return t1 + t2


def subsolution_residual(manifold, profile, pot, p: float, s0: float, radii) -> float:
    """The worst defect over radii inside the region, as the library's."""
    worst = -math.inf
    for r in radii:
        assert s0 == 0.0 or log_value(profile, r) > math.log(s0)
        t1, t2 = scaled_terms(manifold, profile, p, r)
        s_val = t1 + t2
        v_pot = potential(pot, r)
        if v_pot > 0.0:
            res = (v_pot - s_val) / v_pot
        else:
            floor = 64.0 * math.ulp(1.0) * (abs(t1) + abs(t2))
            if abs(s_val) <= floor:
                res = 0.0
            else:
                res = -math.inf if s_val > 0.0 else math.inf
        worst = max(worst, res)
    return worst
