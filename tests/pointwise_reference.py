"""The per-radius formulas of the pointwise layer, one function per
quantity, kept as a test-only reference.

The library forms these over a whole radius grid in one call per model
object: scaled_derivs on the profile and the warp, scaled_values on a
SharpPotential, and one operator formula that combines them in r**mu-scaled
terms.  The tests assert that every value equals these expressions bit for
bit, so no quantity drifts from its formula, not even in the last bit.
log_value keeps the formula of growthlab 0.1.0.
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


def scaled_derivs(profile, t: float):
    """(log v, t v'/v, v v''/v'**2) at one radius; nan for the last where
    v' = 0."""
    if isinstance(profile, PowerLaw):
        c = profile.c
        return c * math.log(t), c, (c - 1.0) / c if c else math.nan
    if isinstance(profile, ExpPower):
        c, b = profile.c, profile.beta
        x = t ** b
        e1 = c * b * x
        return c * x, e1, ((b - 1.0) + e1) / e1 if e1 else math.nan
    if isinstance(profile, PHarmonicRn):
        a = profile.alpha
        u = t ** (-a)
        return (a * math.log(t) + math.log1p(-u), a / (1.0 - u),
                (a - 1.0) * (1.0 - u) / a)
    raise TypeError(profile)


def potential(pot, r: float) -> float:
    """SharpPotential.__call__ at an r where no power overflows."""
    if not isinstance(pot, SharpPotential):
        return float(pot(r))
    if pot.mu == pot.p:
        return pot.lam / r ** pot.p
    return pot.lam * (1.0 - pot.D / r ** pot.beta) / r ** pot.mu


def scaled_potential(pot, r: float):
    """(mu, r**mu * V(r)) of a SharpPotential, and (0, V(r)) of any other."""
    if not isinstance(pot, SharpPotential):
        return 0.0, float(pot(r))
    if pot.D == 0.0:
        return pot.mu, pot.lam
    return pot.mu, pot.lam * (1.0 - pot.D / r ** pot.beta)


def scaled_terms(manifold, profile, p: float, mu: float, r: float):
    """The two terms of r**mu * Delta_p(v) / v**(p-1):
    z**p * (p-1)*k2 and z**p * e_g/e1, with z = e1 * r**(mu/p - 1)."""
    _, e1, k2 = scaled_derivs(profile, r)
    e_g = scaled_derivs(manifold.warp, r)[1]
    zp = (e1 * r ** (mu / p - 1.0)) ** p
    return zp * ((p - 1.0) * k2), zp * (e_g / e1)


def p_laplacian_scaled(manifold, profile, p: float, r: float) -> float:
    t1, t2 = scaled_terms(manifold, profile, p, 0.0, r)
    return t1 + t2


def subsolution_residual(manifold, profile, pot, p: float, s0: float, radii) -> float:
    """The worst defect over radii inside the region, as the library's."""
    worst = -math.inf
    for r in radii:
        assert s0 == 0.0 or log_value(profile, r) > math.log(s0)
        mu, v_pot = scaled_potential(pot, r)
        t1, t2 = scaled_terms(manifold, profile, p, mu, r)
        s_val = t1 + t2
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
