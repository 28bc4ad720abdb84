"""Extremal examples that attain the growth thresholds exactly.

For every admissible (p, q, mu) there is a model surface and a radial
profile that solve the critical equation Delta_p(v) = V * v**(p-1) with a
potential of amplitude lam and decay mu, and whose truncated solution
w = (v - s0)+ grows at exactly the threshold rate:

    mu < p:  warp exp(a*t**beta), profile exp(c*t**beta), beta = 1 - mu/p,
             log of the ball integral of w**q grows like C0 * R**beta / beta
             with C0 = compute_C0(p, q, lam),
    mu = p:  warp t**(a+p-1), profile t**c,
             the ball integral grows like R**(C0 + p), and the matching
             implicit constant solve_C1 is attained by a companion family.

The coefficient pair (a, c) is normalised by (p-1)*a = (q - p*(p-1))*c with
a in {-1, 0, 1}, which makes a + q*c = p*((p-1)*c + a) hold identically and
pins the rate to the threshold.  Inadmissible exponents get Params' message.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .models import ExpPower, ModelManifold, PowerLaw, RadialProfile, SharpPotential
from .params import DomainError, Params, _check_exponents

_LOG_MAX = math.log(sys.float_info.max)


def choose_ac(p: float, q: float) -> tuple[float, float]:
    """Coefficient pair on the line (p-1)*a = (q - p*(p-1))*c.

    a is snapped to -1, 0 or +1 according to the sign of q - p*(p-1), and c
    solves the line equation; c > 0 and (p-1)*c + a > 0 always hold.  The
    normalisation keeps both warp and profile monotone in the natural
    direction and gives the exact identity a + q*c = p*((p-1)*c + a).
    """
    _check_exponents(p, q)
    pivot = p * (p - 1.0)
    if q < pivot:
        return -1.0, (p - 1.0) / (pivot - q)
    if q == pivot:
        return 0.0, 1.0
    return 1.0, (p - 1.0) / (q - pivot)


class SharpExample(namedtuple("SharpExample", "p q mu a c lam s0 t0 "
                              "expected_rate manifold profile potential params")):
    """A fully assembled extremal example.

    Carries the surface, the exact solution profile, the critical potential,
    the truncation level s0 with its radius t0 = v^{-1}(s0), and the growth
    rate the ball integrals must exhibit.
    """

    __slots__ = ()

    @property
    def beta(self) -> float:
        return self.params.beta

    @property
    def kappa(self) -> float:
        """Log-density growth coefficient a + q*c of the ball integrand."""
        return self.a + self.q * self.c

    @property
    def is_borderline(self) -> bool:
        return self.mu == self.p

    def eps_for_radius(self, R1: float) -> float:
        """Smallest amplitude reduction valid on [R1, inf) for the bounds.

        The integral lower bounds assume r**mu * V(r) >= lam - eps beyond
        some radius and V > 0 from the truncation radius on.  The first
        condition needs eps >= lam * D / R1**beta (the exact deficit at R1),
        the second eps >= lam - V(t0) * R1**mu.  Returns the larger demand,
        clamped at 0; always < lam for the examples built here.
        """
        if not (R1 > self.t0):
            raise DomainError(f"R1 must exceed t0={self.t0}, got {R1}")
        e1 = self.potential.level_deficit(R1)
        e2 = self.lam - self.potential(self.t0) * R1 ** self.mu
        return max(e1, e2, 0.0)


def build_sharp_example(p: float, q: float, mu: float) -> SharpExample:
    """Assemble the extremal example for the parameter triple (p, q, mu).

    The truncation level is s0 = 2 * v(r_ref) with r_ref = max(1, r+), where
    r+ is the radius below which the critical potential goes nonpositive;
    this keeps t0 > r+ so the potential is positive on the whole region the
    checks integrate over.  For most triples r+ < 1 and s0 = 2 * v(1).
    DomainError also names a lam or s0 that leaves double range.
    """
    a, c = choose_ac(p, q)
    potential = SharpPotential(p, mu, a, c)
    beta = potential.beta
    if mu < p:
        profile: RadialProfile = ExpPower(c, beta)
        warp: RadialProfile = ExpPower(a, beta)
        expected_rate = (a + q * c) * beta
    else:
        profile = PowerLaw(c)
        warp = PowerLaw(a + p - 1.0)
        expected_rate = (a + q * c) + p
    r_ref = max(1.0, potential.r_min_positive)
    # v(r_ref) passes the largest double as q -> p - 1, where r+ grows
    log_v = profile.log_value(r_ref)
    log_s0 = math.log(2.0) + log_v
    s0 = 2.0 * math.exp(log_v) if log_s0 < _LOG_MAX else math.inf
    if s0 == math.inf:
        raise DomainError(
            f"truncation level s0 = 2*v(r_ref) = exp({log_s0:.6g}) at the "
            f"positivity radius r_ref = {r_ref:.6g} exceeds double range at "
            f"p={p}, q={q}, mu={mu}")
    t0 = profile.level_radius(s0)
    params = Params(p=p, q=q, mu=mu, lam=potential.lam, k=1.0)
    manifold = ModelManifold(warp=warp, omega=2.0 * math.pi)
    return SharpExample(p=float(p), q=float(q), mu=float(mu), a=a, c=c,
                        lam=potential.lam, s0=s0, t0=t0,
                        expected_rate=expected_rate, manifold=manifold,
                        profile=profile, potential=potential, params=params)


def default_qs(p: float) -> tuple[float, float, float]:
    """One q below, at and above the pivot q = p*(p-1).

    The lower value is the midpoint of (p-1, p*(p-1)); the upper one is the
    pivot plus 1.  For p = 2 this gives (1.5, 2, 3).
    """
    _check_exponents(p)
    pivot = p * (p - 1.0)
    return ((p - 1.0 + pivot) / 2.0, pivot, pivot + 1.0)


def sharp_grid() -> list[SharpExample]:
    """The 27 examples: p in {1.5, 2, 3}, q below/at/above pivot, mu in
    {0, p/2, p}."""
    out = []
    for p in (1.5, 2.0, 3.0):
        for q in default_qs(p):
            for mu in (0.0, p / 2.0, p):
                out.append(build_sharp_example(p, q, mu))
    return out
