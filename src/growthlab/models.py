"""Radially symmetric model surfaces, profiles and degenerate operators.

A model surface is a half-line (0, inf) of radii equipped with a warp
function g > 0; the area element of the sphere of radius s is omega * g(s)
and every integral in this package reduces to a one-dimensional one.  Radial
profiles double as warps and as candidate solutions, so both are instances
of the same :class:`RadialProfile` hierarchy.

The profiles of interest grow like exp(c * t**beta), far beyond the range
of double precision at the radii the growth checks need.  Every class
therefore exposes a logarithmic interface

    log_value(t) = log v(t),   dlog(t) = v'(t) / v(t),
    d2_over_v(t) = v''(t) / v(t),   log_deriv(t) = log v'(t),

and the operator routines work with the scaled quantity
Delta_p(v) / v**(p-1), which stays bounded.  Raw evaluation helpers exist
for small radii and tests.

log_value, log_deriv and log_value_delta of the four profiles below take
either one radius, giving a float, or a 1-D float ndarray of radii, giving
an ndarray of the same shape: the quadrature evaluates its integrands a
batch of nodes at a time.  The other methods take one radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DomainError


def _ns(x):
    """The module whose log, log1p and expm1 fit x: numpy for an array of
    radii, math for one radius, where it is faster and returns a float."""
    return math if type(x) is float or not isinstance(x, np.ndarray) else np


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


class RadialProfile:
    """Base class for positive radial functions on (t_min, inf).

    Subclasses implement log_value, dlog and d2_over_v; derived quantities
    have generic fallbacks here and are overridden where a direct closed
    form is cheaper or more accurate.  Monotonicity is not assumed by the
    class itself (warps may decrease); routines that need v' > 0 check it.
    """

    t_min: float = 0.0

    def log_value(self, t: float) -> float:
        raise NotImplementedError

    def dlog(self, t: float) -> float:
        raise NotImplementedError

    def d2_over_v(self, t: float) -> float:
        raise NotImplementedError

    def value(self, t: float) -> float:
        return math.exp(self.log_value(t))

    def deriv(self, t: float) -> float:
        return self.value(t) * self.dlog(t)

    def deriv2(self, t: float) -> float:
        return self.value(t) * self.d2_over_v(t)

    def log_deriv(self, t: float) -> float:
        d = self.dlog(t)
        if d <= 0.0:
            raise DomainError(f"profile is not increasing at t={t}: v'/v={d}")
        return self.log_value(t) + math.log(d)

    def level_radius(self, s: float) -> float:
        """Radius t with v(t) = s; inverse of value on the increasing range."""
        raise NotImplementedError

    def log_value_delta(self, t: float, eta: float) -> float:
        """log v(t + eta) - log v(t) with full relative accuracy in eta.

        Near-edge integrands need this difference for eta many orders of
        magnitude below t, where direct subtraction of the two log values
        loses everything to cancellation.  Subclasses provide closed forms;
        this fallback subtracts and is only adequate for moderate eta.
        """
        return self.log_value(t + eta) - self.log_value(t)

    def _check_t(self, t: float) -> None:
        if not (t > self.t_min):
            raise DomainError(f"radius must exceed {self.t_min}, got {t}")

    def _check_radii(self, t):
        """_check_t for one radius or an array of them; returns _ns(t).

        subsolution_residual calls log_value and three per-radius methods at
        every radius, so the float case is tested first, without a nested
        call, and the per-radius methods keep the plain _check_t: each added
        call or isinstance test there costs it a few percent.
        """
        if type(t) is float or not isinstance(t, np.ndarray):
            if not (t > self.t_min):
                raise DomainError(f"radius must exceed {self.t_min}, got {t}")
            return math
        if not t.min(initial=math.inf) > self.t_min:
            # min is nan if any radius is: name the first bad one
            first = (~(t > self.t_min)).argmax()
            raise DomainError(f"radius must exceed {self.t_min}, "
                              f"got {t[first]}")
        return np


class PowerLaw(RadialProfile):
    """v(t) = t**c.  Any real exponent is allowed; c > 0 gives growth."""

    def __init__(self, c: float):
        self.c = float(c)

    def log_value(self, t):
        xp = self._check_radii(t)
        return self.c * xp.log(t)

    def dlog(self, t: float) -> float:
        self._check_t(t)
        return self.c / t

    def d2_over_v(self, t: float) -> float:
        self._check_t(t)
        return self.c * (self.c - 1.0) / (t * t)

    def deriv(self, t: float) -> float:
        self._check_t(t)
        return self.c * t ** (self.c - 1.0)

    def deriv2(self, t: float) -> float:
        self._check_t(t)
        return self.c * (self.c - 1.0) * t ** (self.c - 2.0)

    def log_deriv(self, t):
        xp = self._check_radii(t)
        if self.c <= 0.0:
            raise DomainError(f"power profile with c={self.c} is not increasing")
        return math.log(self.c) + (self.c - 1.0) * xp.log(t)

    def level_radius(self, s: float) -> float:
        if self.c == 0.0:
            raise DomainError("constant profile has no level radii")
        if not (s > 0.0):
            raise DomainError(f"level must be positive, got {s}")
        return s ** (1.0 / self.c)

    def log_value_delta(self, t: float, eta):
        self._check_t(t)
        return self.c * _ns(eta).log1p(eta / t)

    def __repr__(self):
        return f"PowerLaw(c={self.c})"


class ExpPower(RadialProfile):
    """v(t) = exp(c * t**beta) with 0 < beta <= 1.  c may take any sign."""

    def __init__(self, c: float, beta: float):
        if not (0.0 < beta <= 1.0):
            raise DomainError(f"beta must lie in (0, 1], got {beta}")
        self.c = float(c)
        self.beta = float(beta)

    def log_value(self, t):
        self._check_radii(t)
        return self.c * t ** self.beta

    def dlog(self, t: float) -> float:
        self._check_t(t)
        return self.c * self.beta * t ** (self.beta - 1.0)

    def d2_over_v(self, t: float) -> float:
        # v''/v = c*b*t**(b-2) * ((b-1) + c*b*t**b)
        self._check_t(t)
        c, b = self.c, self.beta
        return c * b * t ** (b - 2.0) * ((b - 1.0) + c * b * t ** b)

    def log_deriv(self, t):
        xp = self._check_radii(t)
        if self.c <= 0.0:
            raise DomainError(f"exp-power profile with c={self.c} is not increasing")
        return math.log(self.c * self.beta) \
            + (self.beta - 1.0) * xp.log(t) + self.c * t ** self.beta

    def level_radius(self, s: float) -> float:
        if self.c == 0.0:
            raise DomainError("constant profile has no level radii")
        if not (s > 0.0):
            raise DomainError(f"level must be positive, got {s}")
        x = math.log(s) / self.c
        if x <= 0.0:
            raise DomainError(f"level {s} is not attained for coefficient {self.c}")
        return x ** (1.0 / self.beta)

    def log_value_delta(self, t: float, eta):
        # c * ((t+eta)**b - t**b) = c * t**b * expm1(b * log1p(eta/t))
        self._check_t(t)
        xp = _ns(eta)
        return self.c * t ** self.beta \
            * xp.expm1(self.beta * xp.log1p(eta / t))

    def __repr__(self):
        return f"ExpPower(c={self.c}, beta={self.beta})"


class Affine(RadialProfile):
    """v(t) = slope * t + offset with slope > 0."""

    def __init__(self, slope: float, offset: float = 0.0):
        if not (slope > 0.0):
            raise DomainError(f"slope must be positive, got {slope}")
        self.slope = float(slope)
        self.offset = float(offset)
        self.t_min = max(0.0, -offset / slope)

    def value(self, t: float) -> float:
        self._check_t(t)
        return self.slope * t + self.offset

    def log_value(self, t):
        xp = self._check_radii(t)
        return xp.log(self.slope * t + self.offset)

    def dlog(self, t: float) -> float:
        return self.slope / self.value(t)

    def d2_over_v(self, t: float) -> float:
        self._check_t(t)
        return 0.0

    def deriv(self, t: float) -> float:
        self._check_t(t)
        return self.slope

    def deriv2(self, t: float) -> float:
        self._check_t(t)
        return 0.0

    def log_deriv(self, t):
        log_slope = math.log(self.slope)
        if self._check_radii(t) is np:
            return np.full(t.shape, log_slope)
        return log_slope

    def level_radius(self, s: float) -> float:
        t = (s - self.offset) / self.slope
        if not (t > self.t_min):
            raise DomainError(f"level {s} is not attained above t_min={self.t_min}")
        return t

    def log_value_delta(self, t: float, eta):
        return _ns(eta).log1p(self.slope * eta / self.value(t))

    def __repr__(self):
        return f"Affine(slope={self.slope}, offset={self.offset})"


class PHarmonicRn(RadialProfile):
    """v(t) = t**alpha - 1 with alpha = (p - n) / (p - 1), for p > n >= 2.

    This is (up to normalisation) the radial p-harmonic function on
    n-dimensional Euclidean space that vanishes on the unit sphere and grows
    at infinity; its scaled p-Laplacian is identically zero on (1, inf).
    """

    t_min = 1.0

    def __init__(self, n: int, p: float):
        if n < 2:
            raise DomainError(f"dimension must be at least 2, got {n}")
        if not (p > n):
            raise DomainError(f"need p > n for an increasing profile, got p={p}, n={n}")
        self.n = int(n)
        self.p = float(p)
        self.alpha = (p - n) / (p - 1.0)

    def log_value(self, t):
        xp = self._check_radii(t)
        a = self.alpha
        # log(t**a - 1) without forming t**a, stable for large t
        return a * xp.log(t) + xp.log1p(-t ** (-a))

    def dlog(self, t: float) -> float:
        self._check_t(t)
        a = self.alpha
        return a / (t * (1.0 - t ** (-a)))

    def d2_over_v(self, t: float) -> float:
        self._check_t(t)
        a = self.alpha
        return a * (a - 1.0) / (t * t * (1.0 - t ** (-a)))

    def deriv(self, t: float) -> float:
        self._check_t(t)
        return self.alpha * t ** (self.alpha - 1.0)

    def deriv2(self, t: float) -> float:
        self._check_t(t)
        return self.alpha * (self.alpha - 1.0) * t ** (self.alpha - 2.0)

    def log_deriv(self, t):
        xp = self._check_radii(t)
        return math.log(self.alpha) + (self.alpha - 1.0) * xp.log(t)

    def level_radius(self, s: float) -> float:
        if not (s > 0.0):
            raise DomainError(f"level must be positive, got {s}")
        return (1.0 + s) ** (1.0 / self.alpha)

    def log_value_delta(self, t: float, eta):
        # ((t+eta)**a - 1) / (t**a - 1) = 1 + t**a * u / (t**a - 1) with
        # u = expm1(a * log1p(eta/t)); the last ratio is u / (1 - t**-a)
        self._check_t(t)
        a = self.alpha
        xp = _ns(eta)
        u = xp.expm1(a * xp.log1p(eta / t))
        return xp.log1p(u / (1.0 - t ** (-a)))

    def __repr__(self):
        return f"PHarmonicRn(n={self.n}, p={self.p})"


# ---------------------------------------------------------------------------
# model surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelManifold:
    """Rotationally symmetric model: warp g and total angular measure omega.

    The sphere of radius s has area omega * g(s); Euclidean n-space is the
    special case g(t) = t**(n-1) with omega the area of the unit (n-1)-sphere.
    """

    warp: RadialProfile
    omega: float = 2.0 * math.pi

    def __post_init__(self):
        if not (self.omega > 0.0):
            raise DomainError(f"omega must be positive, got {self.omega}")

    def log_warp(self, s):
        return self.warp.log_value(s)

    def dlog_warp(self, s: float) -> float:
        return self.warp.dlog(s)

    def log_sphere_area(self, s):
        return math.log(self.omega) + self.warp.log_value(s)

    @classmethod
    def euclidean(cls, n: int) -> "ModelManifold":
        if n < 2:
            raise DomainError(f"dimension must be at least 2, got {n}")
        omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        return cls(warp=PowerLaw(n - 1.0), omega=omega)


# ---------------------------------------------------------------------------
# degenerate radial operators
# ---------------------------------------------------------------------------


def p_laplacian_radial(manifold: ModelManifold, profile: RadialProfile,
                       p: float, r: float) -> float:
    """Raw radial p-Laplacian (p-1)*v'**(p-2)*v'' + (g'/g)*v'**(p-1).

    Overflows for strongly growing profiles at large r; prefer
    :func:`p_laplacian_scaled` there.  Requires v'(r) > 0.
    """
    if not (p > 1.0):
        raise DomainError(f"p must exceed 1, got {p}")
    v1 = profile.deriv(r)
    if not (v1 > 0.0):
        raise DomainError(f"profile must be increasing at r={r}: v'={v1}")
    v2 = profile.deriv2(r)
    return (p - 1.0) * v1 ** (p - 2.0) * v2 + manifold.dlog_warp(r) * v1 ** (p - 1.0)


def p_laplacian_scaled(manifold: ModelManifold, profile: RadialProfile,
                       p: float, r: float) -> float:
    """Scaled radial p-Laplacian Delta_p(v) / v**(p-1) at radius r.

    Equals (p-1)*d1**(p-2)*d2 + (g'/g)*d1**(p-1) with d1 = v'/v and
    d2 = v''/v, which stays in double range even when v itself does not.
    """
    t1, t2 = _scaled_terms(manifold, profile, p, r)
    return t1 + t2


def _scaled_terms(manifold: ModelManifold, profile: RadialProfile,
                  p: float, r: float) -> tuple[float, float]:
    if not (p > 1.0):
        raise DomainError(f"p must exceed 1, got {p}")
    d1 = profile.dlog(r)
    if not (d1 > 0.0):
        raise DomainError(f"profile must be increasing at r={r}: v'/v={d1}")
    d2 = profile.d2_over_v(r)
    return (p - 1.0) * d1 ** (p - 2.0) * d2, manifold.dlog_warp(r) * d1 ** (p - 1.0)


def fd_cross_check(manifold: ModelManifold, profile: RadialProfile,
                   p: float, r: float, h: float | None = None) -> float:
    """Deviation between analytic and finite-difference scaled p-Laplacian.

    Both v'/v and v''/v are rebuilt from the ratio stencil
    y_j = v(r + j*h) / v(r) = exp(log v(r + j*h) - log v(r)), which keeps the
    arithmetic in range for profiles whose raw values overflow.  The default
    step resolves the shorter of the two local scales, the radius and the
    logarithmic derivative length v/v'; for exponentially growing profiles
    the latter stays bounded while r does not.  Returns
    |S_fd - S_analytic| / max(1, |S_analytic|).
    """
    if h is None:
        d1 = abs(profile.dlog(r))
        scale = min(r, 1.0 / d1) if d1 > 0.0 else r
        h = 1e-4 * scale
    if not (h > 0.0) or r - 2.0 * h <= profile.t_min:
        raise DomainError(f"step h={h} leaves the profile domain at r={r}")
    base = profile.log_value(r)
    y = [math.exp(profile.log_value(r + j * h) - base) for j in (-2, -1, 1, 2)]
    ym2, ym1, yp1, yp2 = y
    d1 = (-yp2 + 8.0 * yp1 - 8.0 * ym1 + ym2) / (12.0 * h)
    d2 = (-yp2 + 16.0 * yp1 - 30.0 + 16.0 * ym1 - ym2) / (12.0 * h * h)
    if not (d1 > 0.0):
        raise DomainError(f"stencil sees a non-increasing profile at r={r}")
    dlg = (manifold.log_warp(r + h) - manifold.log_warp(r - h)) / (2.0 * h)
    s_fd = (p - 1.0) * d1 ** (p - 2.0) * d2 + dlg * d1 ** (p - 1.0)
    s_an = p_laplacian_scaled(manifold, profile, p, r)
    return abs(s_fd - s_an) / max(1.0, abs(s_an))


# ---------------------------------------------------------------------------
# critical potentials
# ---------------------------------------------------------------------------


class SharpPotential:
    """Potential V with r**mu * V(r) -> lam that makes the model profile exact.

    For mu < p the pair (warp exp(a*t**beta), profile exp(c*t**beta)) with
    beta = 1 - mu/p solves the equation Delta_p(v) = V * v**(p-1) exactly for

        V(r) = lam * (1 - D / r**beta) / r**mu,
        lam  = beta**p * c**(p-1) * ((p-1)*c + a),
        D    = (p-1) * (1-beta) / (beta * ((p-1)*c + a)),

    so the amplitude deficit lam - r**mu * V(r) equals lam * D / r**beta and
    V is positive exactly for r > D**(1/beta).  That radius is found in log
    space; as mu -> p it passes the largest double (for p = 2, q = 3 from
    mu = 1.988 on), and the constructor then raises DomainError.  For
    mu = p the pair (t**(a+p-1), t**c) gives the exact power potential
    V = lam / r**p with lam = c**(p-1) * ((p-1)*c + a) and no deficit.
    """

    def __init__(self, p: float, mu: float, a: float, c: float):
        if not (p > 1.0):
            raise DomainError(f"p must exceed 1, got {p}")
        if not (0.0 <= mu <= p):
            raise DomainError(f"mu must lie in [0, p], got {mu}")
        if not (c > 0.0):
            raise DomainError(f"c must be positive, got {c}")
        if not ((p - 1.0) * c + a > 0.0):
            raise DomainError(
                f"(p-1)*c + a must be positive, got {(p - 1.0) * c + a}")
        self.p = float(p)
        self.mu = float(mu)
        self.a = float(a)
        self.c = float(c)
        self.beta = 1.0 - mu / p
        if mu < p:
            self.lam = self.beta ** p * c ** (p - 1.0) * ((p - 1.0) * c + a)
            self.D = (p - 1.0) * (1.0 - self.beta) \
                / (self.beta * ((p - 1.0) * c + a))
        else:
            self.lam = c ** (p - 1.0) * ((p - 1.0) * c + a)
            self.D = 0.0
        self.r_min_positive = 0.0
        if self.D > 0.0:
            log_r = math.log(self.D) / self.beta
            try:
                self.r_min_positive = math.exp(log_r)
            except OverflowError:
                raise DomainError(
                    f"positivity radius exp({log_r:.6g}) of the potential "
                    f"exceeds double range at p={p}, mu={mu}") from None

    def __call__(self, r: float) -> float:
        if not (r >= 1.0):
            raise DomainError(f"potential is defined for r >= 1, got {r}")
        if self.mu == self.p:
            return self.lam / r ** self.p
        return self.lam * (1.0 - self.D / r ** self.beta) / r ** self.mu

    def level_deficit(self, r: float) -> float:
        """Exact value of lam - r**mu * V(r)."""
        if not (r >= 1.0):
            raise DomainError(f"potential is defined for r >= 1, got {r}")
        if self.mu == self.p:
            return 0.0
        return self.lam * self.D / r ** self.beta

    def __repr__(self):
        return (f"SharpPotential(p={self.p}, mu={self.mu}, "
                f"a={self.a}, c={self.c})")


def potential_sharp(p: float, mu: float, a: float, c: float, r: float) -> float:
    """Evaluate the critical potential at radius r >= 1."""
    return SharpPotential(p, mu, a, c)(r)


# ---------------------------------------------------------------------------
# subsolution verification
# ---------------------------------------------------------------------------


def subsolution_residual(manifold: ModelManifold, profile: RadialProfile,
                         potential, p: float, s0: float, radii) -> float:
    """Worst signed defect of Delta_p(v) >= V * v**(p-1) over a radius grid.

    At each radius the scaled defect (V - Delta_p(v)/v**(p-1)) / V is
    computed; the maximum over the grid is returned, so a value <= tol
    certifies the differential inequality on the grid up to tol.  Exact
    solutions give residuals at rounding level; negative values indicate a
    strict subsolution.

    The grid must lie where the solution region is meaningful: v(r) > s0.
    When V(r) = 0 the scale is lost; the defect is then compared against a
    rounding floor of the two operator terms and mapped to 0 (inside the
    floor), -inf (strictly above) or +inf (violation).
    """
    radii = list(radii)
    if not radii:
        raise DomainError("radius grid is empty")
    if s0 < 0.0:
        raise DomainError(f"s0 must be nonnegative, got {s0}")
    log_s0 = math.log(s0) if s0 > 0.0 else -math.inf
    worst = -math.inf
    for r in radii:
        if profile.log_value(r) <= log_s0:
            raise DomainError(f"v(r) <= s0 at r={r}: grid leaves the region")
        t1, t2 = _scaled_terms(manifold, profile, p, r)
        s_val = t1 + t2
        v_pot = float(potential(r))
        if v_pot > 0.0:
            res = (v_pot - s_val) / v_pot
        elif v_pot == 0.0:
            floor = 64.0 * math.ulp(1.0) * (abs(t1) + abs(t2))
            if abs(s_val) <= floor:
                res = 0.0
            elif s_val > 0.0:
                res = -math.inf
            else:
                res = math.inf
        else:
            raise DomainError(f"potential must be nonnegative, got {v_pot} at r={r}")
        if res > worst:
            worst = res
    return worst
