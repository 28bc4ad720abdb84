"""Radially symmetric model surfaces, profiles and degenerate operators.

A model surface is a half-line (0, inf) of radii equipped with a warp
function g > 0; the area element of the sphere of radius s is omega * g(s)
and every integral in this package reduces to a one-dimensional one.  Radial
profiles double as warps and as candidate solutions, so both are instances
of the same :class:`RadialProfile` hierarchy.

The profiles of interest grow like exp(c * t**beta), far beyond the range
of double precision at the radii the growth checks need.  Every class
therefore exposes a logarithmic interface

    log_value(t) = log v(t),   log_deriv(t) = log v'(t),
    scaled_derivs(radii) = ([log v], [r v'/v], [v v''/v'**2]),
    log_slopes(radii) = [r v'/v],

and the operator routines work with the scaled quantity
r**mu * Delta_p(v) / v**(p-1), which stays of order one.

log_value, log_deriv and log_value_delta of the three profiles below take
either one radius, giving a float, or a 1-D float ndarray of radii, giving
an ndarray of the same shape: growth's integrand makes one log_value call
on all nodes of a quadrature batch.  scaled_derivs and log_slopes take a
list of radii, and both come from one loop per profile, _derivs, which
forms the other two columns only for scaled_derivs.  r v'/v is a
profile's one log-slope: growth places its panel clusters from it.

numpy is used only on such an array and never imported here, so code that
evaluates single radii or lists of them, as verify and l1 do, runs without
it.

The pointwise checks make their grid calls for whole radius lists:
subsolution_residual one scaled_derivs call on the profile, one
log_slopes call on the warp (it reads r g'/g alone) and one
SharpPotential.scaled_values call, and fd_cross_check the first two at
its one radius.  Each call checks every radius and names the first bad
one, and the residual's loop then does float arithmetic only.  Each value is the O(1)
quantity of its radius: r v'/v and v v''/v'**2 rather than v'/v and
v''/v, and r**mu * V rather than V, so no radius is squared and no r**mu
is formed, and the verdict holds at every radius in double range.
_operator_terms is the one formula that combines them.  The grid is not
handed to numpy: numpy's pow differs from libm's in the last bit of some
values, so a residual would depend on whether numpy is loaded, and verify
would have to load it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .params import DomainError, _check_exponents, _check_finite_positive


def _ns(x):
    """The module whose log, log1p and expm1 fit x: numpy for an array of
    radii, math for one radius, where it is faster and returns a float.

    An array exists only once numpy is loaded, so this never imports it.
    """
    if type(x) is float:
        return math
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(x, np.ndarray) else math


def geometric_grid(lo: float, hi: float, num: int) -> list[float]:
    """num >= 2 points from lo > 0 to hi, equally spaced in log scale.

    The steps are numpy's geomspace's: log10 of the two ends, a linear step
    between those, 10**y at each point, and the two ends exact.  Python's
    10**y may differ from numpy's by an ulp, and is more often the closer.
    num above 10**6 raises DomainError before any list exists: verify takes
    about 1 us and 0.4 KB per radius (2 cores, CPython 3.11), so a second
    and 0.4 GiB at 10**6, where no check needs more than a few hundred.
    """
    if not num <= 10 ** 6:
        raise DomainError(f"a grid holds at most 10**6 radii, got num={num}")
    y0 = math.log10(lo)
    step = (math.log10(hi) - y0) / (num - 1)
    return [lo, *[10.0 ** (i * step + y0) for i in range(1, num - 1)], hi]


def _check_dimension(n) -> None:
    """DomainError unless the dimension n is a whole number of at least 2."""
    if not n >= 2:
        raise DomainError(f"dimension must be at least 2, got {n}")
    if n % 1:
        raise DomainError(f"dimension must be a whole number, got {n}")


def _coefficient(c: float) -> float:
    """A profile's coefficient c as a float; DomainError unless finite."""
    if not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c}")
    return float(c)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


class RadialProfile:
    """Base class for positive radial functions on (t_min, inf).

    The class states the contract once: log_value, log_deriv and
    log_value_delta check their radius and level_radius its level, then
    each calls its subclass's closed form, _log_v(t, xp), _log_dv(t, xp),
    _delta(t, eta, xp) or _level(s), with xp the namespace of _ns.  An
    OverflowError of _level, or a result that is not finite, is a level
    radius exp(_log_level(s)) past the largest double.  scaled_derivs and
    log_slopes come from the subclass's one loop, _derivs, which checks its
    own radii.  A profile that only G and J read at s0 = 0 may override
    log_value alone.  Monotonicity is not assumed by the class itself
    (warps may decrease); routines that need v' > 0 check it.
    """

    t_min: float = 0.0

    def log_value(self, t):
        return self._log_v(t, self._check_radii(t))

    def scaled_derivs(self, radii: list) -> tuple[list, list, list]:
        """Three lists over a list of radii: log v, e1 = t v'/v and
        k2 = v v''/v'**2, each of order one where v grows like a power or
        like exp(c t**beta); k2 is nan where v' = 0.  DomainError names the
        first radius that is not finite, or else does not exceed t_min."""
        return self._derivs(radii, True)

    def log_slopes(self, radii: list) -> list:
        """The e1 = t v'/v column of scaled_derivs alone, from the same
        loop and with the same radius check."""
        return self._derivs(radii, False)[1]

    def _derivs(self, radii: list, full: bool) -> tuple[list, list, list]:
        """The columns of scaled_derivs, from one loop; without full, only
        the e1 list is complete, the others may be left empty."""
        raise NotImplementedError

    def log_deriv(self, t):
        return self._log_dv(t, self._check_radii(t))

    def level_radius(self, s: float) -> float:
        """Radius t with v(t) = s; inverse of v on the increasing range."""
        if not (s > 0.0):
            raise DomainError(f"level must be positive, got {s}")
        try:
            t = self._level(s)
        except OverflowError:
            t = math.inf
        # s ** (1/c) is inf without an OverflowError once 1/c is
        if not t < math.inf:
            raise DomainError(f"level radius t = exp({self._log_level(s):.6g}) "
                              f"of the level s = {s:.6g} exceeds the largest "
                              "double")
        return t

    def log_value_delta(self, t: float, eta):
        """log v(t + eta) - log v(t) with full relative accuracy in eta.

        Near-edge integrands need this difference for eta many orders of
        magnitude below t, where direct subtraction of the two log values
        loses everything to cancellation.
        """
        self._check_radii(t)
        return self._delta(t, eta, _ns(eta))

    def _check_radii(self, t):
        """DomainError unless t, one radius or an array, exceeds t_min;
        returns _ns(t).  The float case is tested first, without a nested
        call: log_sphere_integral passes one radius."""
        if type(t) is float or (xp := _ns(t)) is math:
            if not (t > self.t_min):
                raise self._outside(t)
            return math
        if not xp.minimum.reduce(t, initial=math.inf) > self.t_min:
            # the minimum is nan if any radius is: name the first bad one
            raise self._outside(t[(~(t > self.t_min)).argmax()])
        return xp

    def _outside(self, t: float) -> DomainError:
        """The error of a radius t that does not exceed t_min."""
        return DomainError(f"radius must exceed {self.t_min}, got {t}")

    def _refused(self, t: float) -> DomainError:
        """_outside, after the error of a radius that is not finite."""
        if not -math.inf < t < math.inf:
            return DomainError(f"radius {t} is not finite")
        return self._outside(t)


class PowerLaw(RadialProfile):
    """v(t) = t**c.  Any finite exponent is allowed; c > 0 gives growth."""

    def __init__(self, c: float):
        self.c = _coefficient(c)

    def _log_v(self, t, xp):
        return self.c * xp.log(t)

    def _derivs(self, radii: list, full: bool) -> tuple[list, list, list]:
        c, lo, inf, log = self.c, self.t_min, math.inf, math.log
        lv = []
        for t in radii:
            if not lo < t < inf:
                raise self._refused(t)
            if full:
                lv.append(c * log(t))
        n = len(radii)
        return lv, [c] * n, [(c - 1.0) / c if c else math.nan] * n

    def _log_dv(self, t, xp):
        if self.c <= 0.0:
            raise DomainError(f"power profile with c={self.c} is not increasing")
        return math.log(self.c) + (self.c - 1.0) * xp.log(t)

    def _level(self, s: float) -> float:
        if self.c == 0.0:
            raise DomainError("constant profile has no level radii")
        return s ** (1.0 / self.c)

    def _log_level(self, s: float) -> float:
        return math.log(s) / self.c

    def _delta(self, t: float, eta, xp):
        return self.c * xp.log1p(eta / t)

    def __repr__(self):
        return f"PowerLaw(c={self.c})"


class ExpPower(RadialProfile):
    """v(t) = exp(c * t**beta) with 0 < beta <= 1 and c finite, any sign."""

    def __init__(self, c: float, beta: float):
        if not (0.0 < beta <= 1.0):
            raise DomainError(f"beta must lie in (0, 1], got {beta}")
        self.c = _coefficient(c)
        self.beta = float(beta)

    def _log_v(self, t, xp):
        return self.c * t ** self.beta

    def _derivs(self, radii: list, full: bool) -> tuple[list, list, list]:
        # with x = t**b: t v'/v = c*b*x and v v''/v'**2 = ((b-1) + c*b*x) / (c*b*x)
        c, b, lo, inf = self.c, self.beta, self.t_min, math.inf
        cb, bm1 = c * b, b - 1.0
        lv, e1, k2 = [], [], []
        for t in radii:
            if not lo < t < inf:
                raise self._refused(t)
            x = t ** b
            e = cb * x
            e1.append(e)
            if full:
                lv.append(c * x)
                k2.append((bm1 + e) / e if e else math.nan)
        return lv, e1, k2

    def _log_dv(self, t, xp):
        if self.c <= 0.0:
            raise DomainError(f"exp-power profile with c={self.c} is not increasing")
        return math.log(self.c * self.beta) \
            + (self.beta - 1.0) * xp.log(t) + self.c * t ** self.beta

    def _level(self, s: float) -> float:
        if self.c == 0.0:
            raise DomainError("constant profile has no level radii")
        x = math.log(s) / self.c
        if x <= 0.0:
            raise DomainError(f"level {s} is not attained for coefficient {self.c}")
        return x ** (1.0 / self.beta)

    def _log_level(self, s: float) -> float:
        return math.log(math.log(s) / self.c) / self.beta

    def _delta(self, t: float, eta, xp):
        # c * ((t+eta)**b - t**b) = c * t**b * expm1(b * log1p(eta/t))
        return self.c * t ** self.beta \
            * xp.expm1(self.beta * xp.log1p(eta / t))

    def __repr__(self):
        return f"ExpPower(c={self.c}, beta={self.beta})"


class PHarmonicRn(RadialProfile):
    """v(t) = t**alpha - 1, alpha = (p - n) / (p - 1), for p > n >= 2, n whole.

    This is (up to normalisation) the radial p-harmonic function on
    n-dimensional Euclidean space that vanishes on the unit sphere and grows
    at infinity; its scaled p-Laplacian is identically zero on (1, inf).
    """

    t_min = 1.0

    def __init__(self, n: int, p: float):
        _check_dimension(n)
        _check_exponents(p)
        if not (p > n):
            raise DomainError(f"need p > n for an increasing profile, got p={p}, n={n}")
        self.n = int(n)
        self.p = float(p)
        self.alpha = (p - n) / (p - 1.0)

    def _log_v(self, t, xp):
        a = self.alpha
        # log(t**a - 1) without forming t**a, stable for large t
        return a * xp.log(t) + xp.log1p(-t ** (-a))

    def _derivs(self, radii: list, full: bool) -> tuple[list, list, list]:
        # with u = t**-a: t v'/v = a / (1 - u) and v v''/v'**2 = (a-1)(1-u)/a
        a, lo, inf = self.alpha, self.t_min, math.inf
        am1, log, log1p = a - 1.0, math.log, math.log1p
        lv, e1, k2 = [], [], []
        for t in radii:
            if not lo < t < inf:
                raise self._refused(t)
            u = t ** -a
            w = 1.0 - u
            e1.append(a / w)
            if full:
                lv.append(a * log(t) + log1p(-u))
                k2.append(am1 * w / a)
        return lv, e1, k2

    def _log_dv(self, t, xp):
        return math.log(self.alpha) + (self.alpha - 1.0) * xp.log(t)

    def _level(self, s: float) -> float:
        return (1.0 + s) ** (1.0 / self.alpha)

    def _log_level(self, s: float) -> float:
        return math.log1p(s) / self.alpha

    def _delta(self, t: float, eta, xp):
        # ((t+eta)**a - 1) / (t**a - 1) = 1 + t**a * u / (t**a - 1) with
        # u = expm1(a * log1p(eta/t)); the last ratio is u / (1 - t**-a)
        a = self.alpha
        u = xp.expm1(a * xp.log1p(eta / t))
        return xp.log1p(u / (1.0 - t ** (-a)))

    def __repr__(self):
        return f"PHarmonicRn(n={self.n}, p={self.p})"


# ---------------------------------------------------------------------------
# model surfaces
# ---------------------------------------------------------------------------


class ModelManifold(namedtuple("ModelManifold", "warp omega")):
    """Rotationally symmetric model: warp g and total angular measure omega.

    The sphere of radius s has area omega * g(s); Euclidean n-space is the
    special case g(t) = t**(n-1) with omega the area of the unit (n-1)-sphere.
    omega must be finite and positive, also after _replace.
    """

    __slots__ = ()

    def __new__(cls, warp: RadialProfile, omega: float = 2.0 * math.pi):
        _check_finite_positive("omega", omega)
        return super().__new__(cls, warp, omega)

    @classmethod
    def _make(cls, values):
        return cls(*values)

    def log_warp(self, s):
        return self.warp.log_value(s)

    @classmethod
    def euclidean(cls, n: int) -> "ModelManifold":
        """Euclidean n-space: omega = 2 * pi**(n/2) / Gamma(n/2), formed
        from lgamma where Gamma(n/2) overflows (n >= 344); below the normal
        doubles (n >= 439) it raises DomainError."""
        _check_dimension(n)
        try:
            omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        except OverflowError:
            omega = math.exp(math.log(2.0) + (n / 2.0) * math.log(math.pi)
                             - math.lgamma(n / 2.0))
        if not omega >= sys.float_info.min:
            raise DomainError(f"the unit sphere area of dimension n={n} is "
                              "below the smallest normal double")
        return cls(warp=PowerLaw(n - 1.0), omega=omega)


def _log_excess_of(log_s0: float, lv, d):
    """log(v - s0) = log v + log(1 - exp(-d)) from lv = log v and
    d = log v - log s0, which a caller may know more accurately than the
    difference of the two logs: floats, or ndarrays of radii; lv itself
    when s0 = 0, -inf where d <= 0 and nan where d is nan.

    log(1 - exp(-d)) reaches the integrands only through exp, so its
    absolute error is what counts, and log(-expm1(-d)) keeps that within
    an ulp of the larger of 1 and its own size at every d > 0.  An
    array's nodes at d <= 0 take log(0) and warn, so a caller on such an
    array runs this with numpy's warnings off, as quadrature._panels runs
    growth's integrand.
    """
    if log_s0 == -math.inf:
        return lv
    xp = _ns(d)
    if xp is math:
        if d <= 0.0:
            return -math.inf
    else:
        # log(0) = -inf rather than the log of a negative where d < 0
        d = xp.maximum(d, 0.0)
    return lv + xp.log(-xp.expm1(-d))


def _log_s0(s0: float) -> float:
    """log s0 of a truncation level, -inf at s0 = 0; nan is refused."""
    if not s0 >= 0.0:
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
    _check_finite_positive("q", q)
    log_s0 = _log_s0(s0)
    lv = profile.log_value(s)
    le = _log_excess_of(log_s0, lv, lv - log_s0)
    if le == -math.inf:
        return -math.inf
    return math.log(manifold.omega) + manifold.warp.log_value(s) + q * le


def sphere_log_slope(manifold: ModelManifold, profile: RadialProfile,
                     q: float, s0: float, rmin: float, rmax: float) -> float:
    """Log-log slope of the sphere integral phi over [rmin, rmax].

    The slope is the least-squares fit of log phi against log r at nine
    geometrically spaced radii; -inf when phi vanishes on the whole window.
    Mixed windows (partly inside, partly outside the support of (v - s0)+)
    are rejected: move the window past the support radius.  A window end
    past the largest double, or a log phi of +inf or nan, raises DomainError.
    """
    if not (0.0 < rmin < rmax):
        raise DomainError(f"need 0 < rmin < rmax, got [{rmin}, {rmax}]")
    if rmax == math.inf:
        raise DomainError(f"window end rmax={rmax} is not finite")
    radii = geometric_grid(rmin, rmax, 9)
    vals = [log_sphere_integral(manifold, profile, q, s0, r) for r in radii]
    if not all(v < math.inf for v in vals):
        raise DomainError(f"log phi is +inf or nan on [{rmin}, {rmax}], q={q}")
    if all(v == -math.inf for v in vals):
        return -math.inf
    if any(v == -math.inf for v in vals):
        raise DomainError("window straddles the support radius; move rmin up")
    xs = [math.log(r) for r in radii]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(vals) / len(vals)
    dx = [x - x_mean for x in xs]
    return math.fsum(d * (y - y_mean) for d, y in zip(dx, vals)) \
        / math.fsum(d * d for d in dx)


# ---------------------------------------------------------------------------
# degenerate radial operators
# ---------------------------------------------------------------------------


def _operator_terms(p: float, mu: float, radii: list, e1s: list, k2s: list,
                    egs: list) -> list[tuple[float, float]]:
    """The two terms of r**mu * Delta_p(v) / v**(p-1) at each radius.

    With d1 = v'/v, the operator is d1**p * ((p-1)*k2 + e_g/e1) in the
    scaled values e1 = r*d1 and k2 = v*v''/v'**2 of the profile and
    e_g = r*g'/g of the warp, so r**mu times it is z**p * (p-1)*k2 plus
    z**p * e_g/e1, with z = e1 * r**(mu/p - 1).  On the sharp examples z is
    c*beta (mu < p) or c (mu = p) up to rounding, whatever the radius: the
    exponent mu/p - 1 is -beta bit for bit as SharpPotential forms
    beta = 1 - mu/p, and a last-bit mismatch would grow like log r (to
    4e-13 at r = 1e300).  This is the one operator formula of
    subsolution_residual, p_laplacian_scaled and fd_cross_check, formed
    for the whole grid in one loop; DomainError names the first radius
    where e1 is not positive.
    """
    pm1, ex = p - 1.0, mu / p - 1.0
    terms = []
    for r, e1, k2, eg in zip(radii, e1s, k2s, egs):
        if not (e1 > 0.0):
            raise DomainError(f"profile must be increasing at r={r}: "
                              f"v'/v={e1 / r}")
        zp = (e1 * r ** ex) ** p
        terms.append((zp * (pm1 * k2), zp * (eg / e1)))
    return terms


def p_laplacian_scaled(manifold: ModelManifold, profile: RadialProfile,
                       p: float, r: float) -> float:
    """Scaled radial p-Laplacian Delta_p(v) / v**(p-1) at radius r.

    This is _operator_terms at mu = 0, which stays in double range even
    when v itself does not.  An r that is not finite is refused.
    """
    _check_exponents(p)
    _, e1s, k2s = profile.scaled_derivs([r])
    (t1, t2), = _operator_terms(p, 0.0, [r], e1s, k2s,
                                manifold.warp.log_slopes([r]))
    return t1 + t2


class _HyperDual:
    """a + b*e1 + c*e2 + d*e1*e2 with e1**2 = e2**2 = 0: f of one with
    b = c = 1 and d = 0 carries f, f' twice and f'', exact to rounding
    (Fike and Alonso, AIAA 2011-886).  The class is _log_v's xp namespace:
    log, log1p, a float power, sums, negation and products with a float.
    _chain divides b, c and d by s = a or 1 + a before any product, with
    g1 = s*f'(a) and g2 = s**2*f''(a): from (r, r, r, r) no r**2 forms."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def _chain(self, value, s, g1, g2):
        b, c = self.b / s, self.c / s
        return _HyperDual(value, g1 * b, g1 * c, g1 * (self.d / s) + g2 * b * c)

    def log(self):
        return self._chain(math.log(self.a), self.a, 1.0, -1.0)

    def log1p(self):
        return self._chain(math.log1p(self.a), 1.0 + self.a, 1.0, -1.0)

    def __pow__(self, n: float):
        y = self.a ** n
        return self._chain(y, self.a, n * y, n * (n - 1.0) * y)

    def __add__(self, o):
        return _HyperDual(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __rmul__(self, k: float):
        return _HyperDual(k * self.a, k * self.b, k * self.c, k * self.d)

    def __neg__(self):
        return _HyperDual(-self.a, -self.b, -self.c, -self.d)


def fd_cross_check(manifold: ModelManifold, profile: RadialProfile,
                   p: float, r: float) -> float:
    """Largest relative deviation of the operator terms and of log v' at r
    between two evaluations.

    The profile's and the warp's _log_v, on the hyper-dual t = (r, r, r, r),
    give L = log v with L_u and L_uu in u = log r: e1 = L_u and
    k2 = 1 + (L_uu - L_u) / L_u**2 of the profile, e_g = L_u of the warp.
    _operator_terms forms each term at mu = 0 from these and from the
    scaled_derivs and log_slopes columns; _log_dv, which H's integrand
    uses, is set against log v + log e1 - log r of the columns.  Each
    deviation is relative to the larger of the two magnitudes, where the
    first term's counts k2 as at least 1 (either k2 rounds relative to 1,
    and nears 0 where v'' does) and log v + log e1 - log r counts as the
    sum of its three logs' magnitudes.  So it reads a few ulps, times p
    through e1**p, wherever the expressions agree, at any radius in double
    range.  DomainError names a radius that is not finite or not above
    t_min, and a profile that is not increasing at r.
    """
    _check_exponents(p)
    (lv,), (e1,), (k2,) = profile.scaled_derivs([r])
    eg, = manifold.warp.log_slopes([r])
    t = _HyperDual(r, r, r, r)
    hv, hg = profile._log_v(t, _HyperDual), manifold.warp._log_v(t, _HyperDual)
    # nan where v' = 0, as in scaled_derivs, which _operator_terms refuses
    hk2 = 1.0 + (hv.d - hv.b) / hv.b / hv.b if hv.b else math.nan
    (h1, h2), (a1, a2), (s1, _) = _operator_terms(
        p, 0.0, [r, r, r], [hv.b, e1, e1], [hk2, k2, max(1.0, abs(k2))],
        [hg.b, eg, eg])
    le, u = math.log(e1), math.log(r)
    pairs = ((h1, a1, s1), (h2, a2, abs(h2)),
             (lv + le - u, profile._log_dv(r, math), abs(lv) + abs(le) + abs(u)))
    return max(abs(x - y) / max(size, abs(y)) if x != y else 0.0
               for x, y, size in pairs)


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
    V = lam / r**p with lam = c**(p-1) * ((p-1)*c + a) and no deficit.  A
    lam out of double range, or c not finite and positive, is refused.
    scaled_values gives r**mu * V(r), which never overflows, and V(r) is
    its value at r over r**mu, a DomainError where r**mu passes the largest
    double.
    """

    def __init__(self, p: float, mu: float, a: float, c: float):
        _check_exponents(p, mu=mu)
        _check_finite_positive("c", c)
        if not ((p - 1.0) * c + a > 0.0):
            raise DomainError(
                f"(p-1)*c + a must be positive, got {(p - 1.0) * c + a}")
        self.p, self.mu = float(p), float(mu)
        self.a, self.c = float(a), float(c)
        self.beta = 1.0 - mu / p
        try:
            self.lam = (self.beta ** p if mu < p else 1.0) \
                * c ** (p - 1.0) * ((p - 1.0) * c + a)
        except OverflowError:
            self.lam = math.inf
        if not 0.0 < self.lam < math.inf:
            raise DomainError(f"potential amplitude lam = {self.lam} leaves "
                              f"double range at p={p}, mu={mu}")
        self.D = (p - 1.0) * (1.0 - self.beta) \
            / (self.beta * ((p - 1.0) * c + a)) if mu < p else 0.0
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
        scaled = self.scaled_values([r])[0]
        try:
            return scaled / r ** self.mu
        except OverflowError:
            raise DomainError(
                f"potential at r={r!r} cannot be formed: r**{self.mu!r} "
                f"exceeds the largest double") from None

    def scaled_values(self, radii: list) -> list:
        """r**mu * V(r) = lam * (1 - D / r**beta) at each radius of a list,
        lam itself where D = 0 (mu = 0 or mu = p)."""
        lam, D, b = self.lam, self.D, self.beta
        for r in radii:
            if not (r >= 1.0):
                raise DomainError(f"potential is defined for r >= 1, got {r}")
        if not D:
            return [lam] * len(radii)
        return [lam * (1.0 - D / r ** b) for r in radii]

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

    The grid must be finite and lie where the solution region is
    meaningful: v(r) > s0.  When V(r) = 0 the scale is lost; the defect is
    then compared against a rounding floor of the two operator terms and
    mapped to 0 (inside the floor), -inf (strictly above) or +inf
    (violation).  A defect that is nan raises DomainError naming r.

    Both sides are multiplied by r**mu: the profile makes one scaled_derivs
    call over the grid, the warp one log_slopes call, a SharpPotential one
    scaled_values call, and _operator_terms combines them, so every term is
    of order one and the verdict holds at every radius in double range.
    Any other potential is called once per radius and goes through the same
    formula with mu = 0.  The checks of the whole grid run first (each
    grid call's radius check, the profile's naming the first radius that is
    not finite or not above t_min, then an increasing profile in
    _operator_terms), and then, radius by radius, v > s0, a nonnegative
    potential and a defect that is not nan; so where two radii fail
    different checks, a whole-grid check may be named before an earlier
    radius's failure.
    """
    radii = list(radii)
    if not radii:
        raise DomainError("radius grid is empty")
    _check_exponents(p)
    log_s0 = _log_s0(s0)
    inf = math.inf
    lvs, e1s, k2s = profile.scaled_derivs(radii)
    egs = manifold.warp.log_slopes(radii)
    if isinstance(potential, SharpPotential):
        mu, pots = potential.mu, potential.scaled_values(radii)
    else:
        mu, pots = 0.0, [float(potential(r)) for r in radii]
    worst = -inf
    terms = _operator_terms(p, mu, radii, e1s, k2s, egs)
    for r, lv, (t1, t2), v_pot in zip(radii, lvs, terms, pots):
        if lv <= log_s0:
            raise DomainError(f"v(r) <= s0 at r={r}: grid leaves the region")
        s_val = t1 + t2
        if v_pot > 0.0:
            res = (v_pot - s_val) / v_pot
        elif v_pot == 0.0:
            floor = 64.0 * math.ulp(1.0) * (abs(t1) + abs(t2))
            if abs(s_val) <= floor:
                res = 0.0
            elif s_val > 0.0:
                res = -inf
            elif s_val < 0.0:
                res = inf
            else:
                res = s_val  # nan, raised below
        else:
            raise DomainError(f"potential must be nonnegative, got {v_pot} at r={r}")
        if res > worst:
            worst = res
        elif res != res:
            raise DomainError(f"defect at r={r} is nan")
    return worst
