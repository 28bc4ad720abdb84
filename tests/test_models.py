"""Tests for radial profiles, model manifolds, and the radial operator.

High-precision expectations were computed with mpmath at 60 digits inside
the tests, so every profile formula is checked against an independent
evaluation rather than against itself.
"""

import math
import re
import struct
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthlab import (
    DomainError,
    ExpPower,
    ModelManifold,
    PHarmonicRn,
    PowerLaw,
    SharpPotential,
    build_sharp_example,
    fd_cross_check,
    log_sphere_integral,
    p_laplacian_scaled,
    sharp_grid,
    sphere_log_slope,
    subsolution_residual,
)

from growthlab.cli import _COMMANDS
from growthlab.models import _HyperDual, _operator_terms, geometric_grid

import pointwise_reference as ref

mpmath.mp.dps = 60


def mp_profile(profile):
    """Return an mpmath callable mirroring the profile's value."""
    if isinstance(profile, PowerLaw):
        return lambda t: t ** mpmath.mpf(profile.c)
    if isinstance(profile, ExpPower):
        c, b = mpmath.mpf(profile.c), mpmath.mpf(profile.beta)
        return lambda t: mpmath.exp(c * t ** b)
    if isinstance(profile, PHarmonicRn):
        a = (mpmath.mpf(profile.p) - profile.n) / (mpmath.mpf(profile.p) - 1)
        return lambda t: t ** a - 1
    raise TypeError(profile)


PROFILES = [
    PowerLaw(1.0),
    PowerLaw(3.0),
    PowerLaw(0.5),
    ExpPower(1.0, 1.0),
    ExpPower(2.0, 0.25),
    ExpPower(0.5, 0.5),
    PHarmonicRn(2, 3.0),
    PHarmonicRn(3, 4.0),
]


@pytest.mark.parametrize("profile", PROFILES, ids=lambda pr: type(pr).__name__ + repr(getattr(pr, "c", getattr(pr, "n", ""))))
@pytest.mark.parametrize("t", [1.5, 7.0, 400.0])
def test_log_value_against_mpmath(profile, t):
    v = mp_profile(profile)
    expected = mpmath.log(v(mpmath.mpf(t)))
    assert profile.log_value(t) == pytest.approx(float(expected), rel=1e-13)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda pr: type(pr).__name__ + repr(getattr(pr, "c", getattr(pr, "n", ""))))
@pytest.mark.parametrize("eta_rel", [1e-3, 1e-9, 1e-15])
def test_log_value_delta_against_mpmath(profile, eta_rel, t=5.0):
    """log v(t + eta) - log v(t) stays fully accurate at tiny separations.

    For eta below one ulp of t the naive float subtraction would return 0
    or pure noise, so the closed forms are compared against a 60-digit
    evaluation instead.
    """
    eta = eta_rel * t
    v = mp_profile(profile)
    expected = mpmath.log(v(mpmath.mpf(t) + mpmath.mpf(eta))) - mpmath.log(v(mpmath.mpf(t)))
    got = profile.log_value_delta(t, eta)
    assert got == pytest.approx(float(expected), rel=1e-12)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda pr: type(pr).__name__ + repr(getattr(pr, "c", getattr(pr, "n", ""))))
def test_array_methods_match_scalar_loop(profile):
    """The log methods on an array of radii agree with one call per radius.

    One radius gives a float from math's functions; an array gives numpy's,
    which are within an ulp or two of math's.  At most three such calls feed
    each result, so the bound, fixed from float64, is 8 units of 2**-52.
    """
    t = np.geomspace(1.5, 400.0, 25)
    eta = 5.0 * np.geomspace(1e-15, 1e-3, 25)
    for got, loop in [
        (profile.log_value(t), [profile.log_value(x) for x in t.tolist()]),
        (profile.log_deriv(t), [profile.log_deriv(x) for x in t.tolist()]),
        (profile.log_value_delta(5.0, eta),
         [profile.log_value_delta(5.0, e) for e in eta.tolist()]),
    ]:
        assert isinstance(got, np.ndarray) and got.shape == (25,)
        assert all(type(x) is float for x in loop)
        for x, ref in zip(got.tolist(), loop):
            assert abs(x - ref) <= 8 * 2.0 ** -52 * abs(ref)


@pytest.mark.parametrize("profile", [PowerLaw(2.0), ExpPower(1.0, 0.5), PHarmonicRn(2, 3.0)])
def test_array_radius_check_names_first_bad_radius(profile):
    t = np.array([2.0, profile.t_min, 0.5 * profile.t_min, 3.0])
    with pytest.raises(DomainError, match=f"got {profile.t_min}$"):
        profile.log_value(t)
    with pytest.raises(DomainError, match="got nan$"):
        profile.log_deriv(np.array([2.0, math.nan]))
    # an empty batch, as when no node of a round lies on the support
    assert profile.log_value(np.array([])).shape == (0,)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda pr: type(pr).__name__ + repr(getattr(pr, "c", getattr(pr, "n", ""))))
def test_derivatives_against_mpmath(profile, t=3.0):
    v = mp_profile(profile)
    d1 = mpmath.diff(v, mpmath.mpf(t))
    d2 = mpmath.diff(v, mpmath.mpf(t), 2)
    (lv,), (e1,), (k2,) = profile.scaled_derivs([t])
    assert lv == pytest.approx(float(mpmath.log(v(mpmath.mpf(t)))), rel=1e-13)
    assert e1 == pytest.approx(float(t * d1 / v(mpmath.mpf(t))), rel=1e-12)
    assert k2 == pytest.approx(float(v(mpmath.mpf(t)) * d2 / d1 ** 2), rel=1e-11, abs=1e-14)


@pytest.mark.parametrize(
    "profile,s",
    [
        (PowerLaw(2.0), 9.0),
        (ExpPower(1.0, 0.5), 20.0),
        (PHarmonicRn(2, 3.0), 10.0),
        (PHarmonicRn(3, 4.0), 3.0),
    ],
)
def test_level_radius_inverts_value(profile, s):
    r = profile.level_radius(s)
    assert math.exp(profile.log_value(r)) == pytest.approx(s, rel=1e-11)


@pytest.mark.parametrize("profile, s, log_t", [
    (PowerLaw(5e-4), 2.0, 2e3 * math.log(2.0)),
    (ExpPower(0.01, 0.01), 1e100, 100.0 * math.log(100.0 * math.log(1e100))),
    (PHarmonicRn(2, 2.001), 2.0, math.log(3.0) * 1.001 / 0.001),
    # 1/c is inf, so s ** (1/c) is inf without an OverflowError
    (PowerLaw(1e-320), 2.0, math.inf),
    (ExpPower(1e-320, 0.5), 2.0, math.inf),
])
def test_level_radius_past_the_largest_double(profile, s, log_t):
    """A level radius past the largest double is named by its log."""
    assert log_t > math.log(sys.float_info.max)
    with pytest.raises(DomainError, match=re.escape(f"level radius t = exp({log_t:.6g}) of the level "
                                                    f"s = {s:.6g} exceeds the largest double")):
        profile.level_radius(s)


def test_level_radius_frozen():
    # v(t) = sqrt(t) reaches 2 at t = 4, and t^(1/2) - 1 reaches 3 at 64
    assert PowerLaw(0.5).level_radius(2.0) == pytest.approx(4.0, rel=1e-12)
    assert PHarmonicRn(3, 4.0).level_radius(3.0) == pytest.approx(64.0, rel=1e-11)


def test_profile_domain_guards():
    with pytest.raises(DomainError):
        PHarmonicRn(3, 4.0).log_value(0.5)
    with pytest.raises(DomainError):
        PowerLaw(1.0).log_value(0.0)
    with pytest.raises(DomainError):
        ExpPower(1.0, 1.5)
    with pytest.raises(DomainError):
        PHarmonicRn(3, 2.5)


_PLANE = ModelManifold(PowerLaw(1.0))
_GROWING = PowerLaw(2.0)
_DECREASING = PowerLaw(-1.0)
# at r = inf the operator read nan at (2, 3, 1) and 0.0 at (2, 3, 2)
_DECAYING, _BORDERLINE = build_sharp_example(2.0, 3.0, 1.0), build_sharp_example(2.0, 3.0, 2.0)


@pytest.mark.parametrize("call, message", [
    (lambda: PowerLaw(2.0).level_radius(0.0), "level must be positive, got 0.0"),
    (lambda: ExpPower(1.0, 0.5).level_radius(-1.0), "level must be positive, got -1.0"),
    (lambda: PHarmonicRn(2, 3.0).level_radius(math.nan), "level must be positive, got nan"),
    (lambda: PowerLaw(0.0).level_radius(2.0), "constant profile has no level radii"),
    (lambda: ExpPower(0.0, 0.5).level_radius(2.0), "constant profile has no level radii"),
    (lambda: ExpPower(1.0, 0.5).level_radius(0.5), "level 0.5 is not attained for coefficient 1.0"),
    (lambda: ExpPower(-1.0, 0.5).level_radius(2.0), "level 2.0 is not attained for coefficient -1.0"),
    (lambda: PowerLaw(-1.0).log_deriv(2.0), "power profile with c=-1.0 is not increasing"),
    (lambda: PowerLaw(0.0).log_deriv(2.0), "power profile with c=0.0 is not increasing"),
    (lambda: ExpPower(0.0, 0.5).log_deriv(2.0), "exp-power profile with c=0.0 is not increasing"),
    (lambda: PHarmonicRn(1, 3.0), "dimension must be at least 2, got 1"),
    (lambda: PHarmonicRn(3, math.inf), "p must be finite, got inf"),
    (lambda: ModelManifold.euclidean(1), "dimension must be at least 2, got 1"),
    (lambda: ModelManifold(PowerLaw(1.0), omega=0.0), "omega must be finite and positive, got 0.0"),
    (lambda: log_sphere_integral(ModelManifold(PowerLaw(1.0)), PowerLaw(1.0), 2.0, -1.0, 2.0),
     "s0 must be nonnegative, got -1.0"),
    (lambda: p_laplacian_scaled(_PLANE, _DECREASING, 2.0, 3.0),
     "profile must be increasing at r=3.0: v'/v=-0.3333333333333333"),
    (lambda: p_laplacian_scaled(_PLANE, _GROWING, 1.0, 3.0), "p must exceed 1, got 1.0"),
    (lambda: fd_cross_check(_PLANE, _GROWING, 1.0, 3.0), "p must exceed 1, got 1.0"),
    (lambda: subsolution_residual(_PLANE, _GROWING, lambda r: 1.0, 1.0, 0.0, [3.0]),
     "p must exceed 1, got 1.0"),
    (lambda: fd_cross_check(_PLANE, _DECREASING, 2.0, 3.0),
     "profile must be increasing at r=3.0: v'/v=-0.3333333333333333"),
    (lambda: SharpPotential(1.0, 0.0, 1.0, 1.0), "p must exceed 1, got 1.0"),
    (lambda: SharpPotential(2.0, 3.0, 1.0, 1.0), "mu must lie in [0, p] = [0, 2.0], got 3.0"),
    (lambda: SharpPotential(2.0, 1.0, 1.0, 1.0).level_deficit(0.5),
     "potential is defined for r >= 1, got 0.5"),
    (lambda: subsolution_residual(_PLANE, _GROWING, lambda r: 1.0, 2.0, 0.0, []),
     "radius grid is empty"),
    (lambda: p_laplacian_scaled(_DECAYING.manifold, _DECAYING.profile, 2.0, math.inf),
     "radius inf is not finite"),
    (lambda: p_laplacian_scaled(_BORDERLINE.manifold, _BORDERLINE.profile, 2.0, math.inf),
     "radius inf is not finite"),
    # each of these returned nan, a wrong number or an object that was
    # (level radius 1.0, logG = inf, a residual of 0.0, lam = inf)
    (lambda: p_laplacian_scaled(_PLANE, _GROWING, math.inf, 3.0), "p must be finite, got inf"),
    (lambda: fd_cross_check(_PLANE, _GROWING, math.inf, 3.0), "p must be finite, got inf"),
    (lambda: PowerLaw(math.inf), "c must be finite, got inf"),
    (lambda: ExpPower(math.nan, 0.5), "c must be finite, got nan"),
    (lambda: PHarmonicRn(2.5, 4.0), "dimension must be a whole number, got 2.5"),
    (lambda: ModelManifold.euclidean(math.nan), "dimension must be at least 2, got nan"),
    (lambda: ModelManifold.euclidean(math.inf), "dimension must be a whole number, got inf"),
    (lambda: ModelManifold(PowerLaw(1.0), omega=math.inf), "omega must be finite and positive, got inf"),
    (lambda: subsolution_residual(_PLANE, _GROWING, lambda r: 1.0, 2.0, math.nan, [3.0]),
     "s0 must be nonnegative, got nan"),
    (lambda: log_sphere_integral(_PLANE, _GROWING, 2.0, math.nan, 2.0), "s0 must be nonnegative, got nan"),
    (lambda: log_sphere_integral(_PLANE, _GROWING, math.inf, 0.0, 2.0), "q must be finite and positive, got inf"),
    (lambda: SharpPotential(math.inf, 0.0, 1.0, 1.0), "p must be finite, got inf"),
    (lambda: SharpPotential(2.0, 0.0, 1.0, math.inf), "c must be finite and positive, got inf"),
    # c**(p - 1) overflowed with a traceback, or lam underflowed to 0.0
    (lambda: SharpPotential(50.0, 0.0, 1.0, 49.0 / 1e-7),
     "potential amplitude lam = inf leaves double range at p=50.0, mu=0.0"),
    (lambda: SharpPotential(1e6, 0.0, 1.0, 0.1), "potential amplitude lam = 0.0 leaves double range at p=1000000.0, mu=0.0"),
    # q * log(v) passes the largest double; the slope read nan
    (lambda: sphere_log_slope(ModelManifold.euclidean(3), PHarmonicRn(3, 4.0), 1e308, 0.0, 1e4, 1e8),
     "log phi is +inf or nan on [10000.0, 100000000.0], q=1e+308"),
    (lambda: fd_cross_check(_DECAYING.manifold, _DECAYING.profile, 2.0, math.inf),
     "radius inf is not finite"),
    (lambda: fd_cross_check(_PLANE, PHarmonicRn(3, 4.0), 2.0, 1.0), "radius must exceed 1.0, got 1.0"),
    (lambda: fd_cross_check(_PLANE, PowerLaw(0.0), 2.0, 3.0), "profile must be increasing at r=3.0: v'/v=0.0"),
    # the grid loop refuses a radius that is not finite before the t_min rule
    (lambda: PowerLaw(2.0).scaled_derivs([3.0, math.inf]), "radius inf is not finite"),
    (lambda: ExpPower(1.0, 0.5).scaled_derivs([math.nan]), "radius nan is not finite"),
    (lambda: PHarmonicRn(3, 4.0).log_slopes([2.0, math.inf]), "radius inf is not finite"),
    (lambda: PHarmonicRn(3, 4.0).log_slopes([math.nan, 0.5]), "radius nan is not finite"),
    (lambda: PowerLaw(2.0).log_slopes([-math.inf]), "radius -inf is not finite"),
], ids=["power-level", "exp-level", "harmonic-level", "power-constant", "exp-constant",
        "exp-unattained", "exp-decreasing-unattained", "power-deriv", "power-deriv-constant",
        "exp-deriv", "harmonic-dimension", "harmonic-p-inf", "euclidean-dimension", "omega",
        "s0", "operator-decreasing", "laplacian-p", "fd-p", "residual-p", "fd-decreasing",
        "potential-p", "potential-mu", "deficit-radius", "residual-empty",
        "laplacian-r-inf-decay", "laplacian-r-inf-borderline", "laplacian-p-inf", "fd-p-inf",
        "power-c-inf", "exp-c-nan", "harmonic-dimension-fraction", "euclidean-nan", "euclidean-inf",
        "omega-inf", "residual-s0-nan", "sphere-s0-nan", "sphere-q-inf", "potential-p-inf",
        "potential-c-inf", "potential-lam-overflow", "potential-lam-underflow", "slope-overflow",
        "fd-r-inf", "fd-radius", "fd-constant", "derivs-inf", "derivs-nan", "slopes-inf",
        "slopes-nan", "slopes-minus-inf"])
def test_model_layer_error_messages(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_sphere_log_slope_rejects_a_window_end_that_is_not_finite():
    # the fit over a window ending at inf read nan
    ex = build_sharp_example(2.0, 3.0, 1.0)
    with pytest.raises(DomainError) as info:
        sphere_log_slope(ex.manifold, ex.profile, ex.q, ex.s0, 1e4, math.inf)
    assert str(info.value) == "window end rmax=inf is not finite"


def test_sphere_log_slope_windows():
    ex = build_sharp_example(2.0, 3.0, 1.0)
    args = (ex.manifold, ex.profile, ex.q, ex.s0)
    with pytest.raises(DomainError) as info:
        sphere_log_slope(*args, 10.0, 10.0)
    assert str(info.value) == "need 0 < rmin < rmax, got [10.0, 10.0]"
    # wholly below t0 = 2.87 the truncated integrand vanishes
    assert sphere_log_slope(*args, 1.0, 2.0) == -math.inf
    with pytest.raises(DomainError) as info:
        sphere_log_slope(*args, ex.t0 / 2.0, 2.0 * ex.t0)
    assert str(info.value) == "window straddles the support radius; move rmin up"


def test_potential_repr():
    assert repr(SharpPotential(2.0, 1.0, 1.0, 1.0)) == "SharpPotential(p=2.0, mu=1.0, a=1.0, c=1.0)"


def test_p_laplacian_cylinder_frozen():
    # g = t, v = t, p = 2: the operator is v'' + v'/t = 1/t, and the
    # scaled form divides by v^(p-1) = t
    m = ModelManifold(PowerLaw(1.0))
    v = PowerLaw(1.0)
    assert p_laplacian_scaled(m, v, 2.0, 5.0) == pytest.approx(0.04, rel=1e-12)


@pytest.mark.parametrize("n,p", [(2, 3.0), (3, 4.0), (2, 5.0)])
@pytest.mark.parametrize("r", [1.5, 10.0, 250.0])
def test_p_harmonic_profile_annihilated(n, p, r):
    """The fundamental-type profile is p-harmonic in euclidean n-space."""
    m = ModelManifold.euclidean(n)
    res = p_laplacian_scaled(m, PHarmonicRn(n, p), p, r)
    assert abs(res) <= 1e-13


def test_euclidean_sphere_constants():
    assert ModelManifold.euclidean(2).omega == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert ModelManifold.euclidean(3).omega == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert ModelManifold.euclidean(4).omega == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)
    # area of the sphere of radius 2 in 3-space is 16 pi
    manifold = ModelManifold.euclidean(3)
    area = math.log(manifold.omega) + manifold.warp.log_value(2.0)
    assert area == pytest.approx(math.log(16.0 * math.pi), rel=1e-13)


@pytest.mark.parametrize("n", [343, 344, 400, 438])
def test_euclidean_sphere_area_up_to_the_normal_doubles(n):
    """2 pi**(n/2) / Gamma(n/2) against 30-digit mpmath.  Gamma(n/2) passes
    the largest double from n = 344 on; there the log of omega, about -700,
    carries an absolute error of a few ulps, which bounds omega's error."""
    with mpmath.workdps(30):
        half = mpmath.mpf(n) / 2
        exact = float(2 * mpmath.pi ** half / mpmath.gamma(half))
    assert ModelManifold.euclidean(n).omega == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n", [439, 1000])
def test_euclidean_sphere_area_below_the_normal_doubles(n):
    with pytest.raises(DomainError, match=f"dimension n={n} is below the smallest normal double"):
        ModelManifold.euclidean(n)


def test_potential_constant_case():
    # a = 0, c = 1, mu = 0, p = 2 gives the constant potential 1
    for r in (1.0, 3.0, 50.0):
        assert SharpPotential(2.0, 0.0, 0.0, 1.0)(r) == pytest.approx(1.0, rel=1e-14)


def test_potential_borderline_decay():
    # mu = p makes the potential exactly lam / r^p with lam = 1 here
    assert SharpPotential(2.0, 2.0, 0.0, 1.0)(10.0) == pytest.approx(0.01, rel=1e-13)


def test_potential_adjusted_branch_frozen():
    """Negative warp exponent with slow decay forces a positivity radius."""
    pot = SharpPotential(3.0, 1.5, -1.0, 1.0)
    assert pot.beta == pytest.approx(0.5, rel=1e-14)
    assert pot.lam == pytest.approx(0.125, rel=1e-14)
    assert pot.D == pytest.approx(2.0, rel=1e-13)
    assert pot.r_min_positive == pytest.approx(4.0, rel=1e-13)
    assert pot(4.0) == pytest.approx(0.0, abs=1e-15)
    assert pot(9.0) > 0.0
    assert pot(7.253041736157983) == pytest.approx(0.0016470057713204695, rel=1e-11)


@pytest.mark.parametrize("p,mu,a,c", [(2.0, 0.0, 1.0, 1.0), (3.0, 1.5, -1.0, 1.0), (1.5, 0.75, 1.0, 2.0)])
@pytest.mark.parametrize("r", [2.0, 17.0, 1234.5])
def test_potential_level_deficit_identity(p, mu, a, c, r):
    pot = SharpPotential(p, mu, a, c)
    assert pot.level_deficit(r) == pytest.approx(pot.lam - pot(r) * r ** mu, rel=1e-11, abs=1e-15)


def test_potential_positivity_radius_near_borderline():
    """D^(1/beta) is formed in log space; past the largest double it raises."""
    p, mu, a, c = 2.0, 1.986, 1.0, 1.0
    pot = SharpPotential(p, mu, a, c)
    beta = 1 - mpmath.mpf(mu) / p
    D = (p - 1) * (1 - beta) / (beta * ((p - 1) * c + a))
    assert pot.r_min_positive == pytest.approx(float(D ** (1 / beta)), rel=1e-12)
    with pytest.raises(DomainError, match="positivity radius"):
        SharpPotential(p, 1.999, a, c)


def test_potential_guards():
    with pytest.raises(DomainError):
        SharpPotential(2.0, 0.0, 1.0, 1.0)(0.5)
    with pytest.raises(DomainError):
        SharpPotential(2.0, 0.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        SharpPotential(2.0, 0.0, -3.0, 1.0)


def test_subsolution_residual_exact_examples():
    for p, q, mu in [(2.0, 3.0, 1.0), (3.0, 4.0, 1.5), (1.5, 0.625, 1.5)]:
        ex = build_sharp_example(p, q, mu)
        radii = [ex.t0 + 0.1 * (1.3 ** j) for j in range(20)]
        res = subsolution_residual(ex.manifold, ex.profile, ex.potential, ex.p, ex.s0, radii)
        assert abs(res) <= 1e-12


def test_subsolution_residual_detects_scaling():
    """Scaling the potential by 1.1 must surface as a residual of 1/11."""
    ex = build_sharp_example(2.0, 3.0, 1.0)
    scaled = lambda r: 1.1 * ex.potential(r)
    radii = [ex.t0 + 1.0, ex.t0 + 5.0]
    res = subsolution_residual(ex.manifold, ex.profile, scaled, ex.p, ex.s0, radii)
    assert res == pytest.approx(1.0 / 11.0, rel=1e-10)


def test_subsolution_residual_guards():
    ex = build_sharp_example(2.0, 3.0, 1.0)
    with pytest.raises(DomainError):
        subsolution_residual(ex.manifold, ex.profile, lambda r: -1.0, ex.p, ex.s0, [ex.t0 + 1.0])
    with pytest.raises(DomainError):
        # below the level radius the comparison function is not positive
        subsolution_residual(ex.manifold, ex.profile, ex.potential, ex.p, ex.s0, [ex.t0 * 0.5])


@pytest.mark.parametrize("manifold, profile, p, want", [
    # p-harmonic: the two operator terms cancel to rounding
    (ModelManifold.euclidean(3), PHarmonicRn(3, 4.0), 4.0, 0.0),
    # v = t**2 on R**3 has Delta_2 v = 6 > 0: strictly above the floor
    (ModelManifold.euclidean(3), PowerLaw(2.0), 2.0, -math.inf),
    # v = t with warp 1/t has Delta_2 v = -1/t**2 < 0: a violation
    (ModelManifold(PowerLaw(-1.0)), PowerLaw(1.0), 2.0, math.inf),
])
def test_subsolution_residual_zero_potential(manifold, profile, p, want):
    """V = 0 leaves no scale: the defect maps to 0, -inf or +inf."""
    radii = geometric_grid(1.5, 100.0, 12)
    assert subsolution_residual(manifold, profile, lambda r: 0.0, p, 0.0, radii) == want


def test_geometric_grid_refuses_more_than_a_million_radii():
    # the check comes before any list exists, so this builds nothing
    with pytest.raises(DomainError) as info:
        geometric_grid(1.0, 2.0, 10 ** 6 + 1)
    assert str(info.value) == "a grid holds at most 10**6 radii, got num=1000001"


# 4 ulps of 1: every deviation of fd_cross_check below is relative
_ROUNDING = 4.0 * 2.0 ** -52
_FD_TOL = {dest: default for _, dest, _, default, _ in _COMMANDS["verify"][3]}["fd_tol"]


def test_fd_tol_sits_between_rounding_and_a_change_of_1e_12():
    # the bound the default is set between, with a margin on each side
    assert 10.0 * _ROUNDING < _FD_TOL < 3e-13


def test_fd_cross_check_families():
    cases = [
        (ModelManifold(PowerLaw(1.0)), PowerLaw(1.0), 2.0, 5.0),
        (ModelManifold.euclidean(3), PHarmonicRn(3, 4.0), 4.0, 9.0),
        (ModelManifold(ExpPower(2.0, 1.0)), ExpPower(4.0, 1.0), 3.0, 1000.0),
        (ModelManifold(ExpPower(-1.0, 0.5)), ExpPower(1.0, 0.5), 1.5, 500.0),
        (ModelManifold(ExpPower(1.0, 1.0)), ExpPower(0.5, 1.0), 2.0, 1e8),
        (ModelManifold(ExpPower(1.0, 1.0)), ExpPower(0.5, 1.0), 2.0, 1e10),
        (ModelManifold.euclidean(5), PHarmonicRn(5, 50.0), 50.0, 1e300),
        (ModelManifold.euclidean(2), PHarmonicRn(2, 2.5), 2.5, 1.0 + 2.0 ** -52),
    ]
    for manifold, profile, p, r in cases:
        assert fd_cross_check(manifold, profile, p, r) <= _ROUNDING


def test_fd_cross_check_reads_rounding_next_to_the_harmonic_zero():
    """v = r**(1/3) - 1 vanishes at r = 1; a five-point finite-difference
    stencil read 1.12e22 at r = 1 + 1e-7, where its nodes leave the
    domain's scale."""
    dev = fd_cross_check(ModelManifold.euclidean(3), PHarmonicRn(3, 4.0), 4.0, 1 + 1e-7)
    assert dev <= _ROUNDING


def test_fd_cross_check_grid():
    """At 200 radii from t0 + 0.5 to 1e300 on every grid example."""
    for ex in sharp_grid():
        for r in geometric_grid(ex.t0 + 0.5, 1e300, 200):
            assert fd_cross_check(ex.manifold, ex.profile, ex.p, r) <= _ROUNDING, (ex.p, ex.q, ex.mu, r)


def _scale_column(monkeypatch, profile, j):
    """Column j of profile's scaled_derivs, 0 to 2 (log v, e1 and k2), times 1 + 1e-12."""
    derivs = profile._derivs

    def scaled(radii, full):
        cols = list(derivs(radii, full))
        cols[j] = [x * (1.0 + 1e-12) for x in cols[j]]
        return tuple(cols)
    monkeypatch.setattr(profile, "_derivs", scaled)


def _move_log_dv(monkeypatch, profile):
    log_dv = profile._log_dv
    monkeypatch.setattr(profile, "_log_dv", lambda t, xp: log_dv(t, xp) * (1.0 + 1e-12))


# each change, and the number of grid examples on which it moves a value
_CHANGES = {
    "log-v": (lambda mp, ex: _scale_column(mp, ex.profile, 0), 27),
    "e1": (lambda mp, ex: _scale_column(mp, ex.profile, 1), 27),
    "k2": (lambda mp, ex: _scale_column(mp, ex.profile, 2), 22),
    "e-g": (lambda mp, ex: _scale_column(mp, ex.manifold.warp, 1), 20),
    "log-dv": (lambda mp, ex: _move_log_dv(mp, ex.profile), 22),
}


@pytest.mark.parametrize("change", _CHANGES)
def test_fd_cross_check_sees_a_change_of_1e_12(monkeypatch, change):
    """A relative change of 1e-12 to one of the expressions fd_cross_check
    compares exceeds the default --fd-tol on every grid example, at the
    five radii verify checks by default, unless the value it scales is 0
    there: k2 and log v' of v = t, and e_g of a constant warp."""
    apply, moved = _CHANGES[change]
    seen = 0
    for ex in sharp_grid():
        radii = geometric_grid(ex.t0 + 0.1, 1e3, 200)
        radii = [radii[i] for i in (0, 50, 100, 150, 199)]
        before = [ex.profile.scaled_derivs(radii), ex.manifold.warp.scaled_derivs(radii),
                  [ex.profile.log_deriv(r) for r in radii]]
        with monkeypatch.context() as mp:
            apply(mp, ex)
            after = [ex.profile.scaled_derivs(radii), ex.manifold.warp.scaled_derivs(radii),
                     [ex.profile.log_deriv(r) for r in radii]]
            dev = max(fd_cross_check(ex.manifold, ex.profile, ex.p, r) for r in radii)
        if after == before:
            assert dev <= _ROUNDING
        else:
            assert dev > _FD_TOL, (ex.p, ex.q, ex.mu, dev)
            seen += 1
    assert seen == moved


# each primitive of the hyper-dual number, applied to t, and the same
# function of t in mpmath
_HD_PRIMITIVES = {
    "log": (lambda t: _HyperDual.log(t), mpmath.log),
    "log1p": (lambda t: _HyperDual.log1p(t), mpmath.log1p),
    "power": (lambda t: t ** 0.5, lambda t: t ** mpmath.mpf(0.5)),
    "negative-power": (lambda t: t ** (-1.0 / 3.0), lambda t: t ** mpmath.mpf(-1.0 / 3.0)),
    "product": (lambda t: 2.5 * t, lambda t: 2.5 * t),
    "sum": (lambda t: t + t, lambda t: t + t),
    "negation": (lambda t: -t, lambda t: -t),
}


@pytest.mark.parametrize("r", [1 + 1e-7, 3.0, 1e10, 1e150, 1e300])
@pytest.mark.parametrize("name", _HD_PRIMITIVES)
def test_hyper_dual_primitives_against_mpmath(name, r):
    """Seeded at t = (r, r, r, r), which is exp(u) at u = log r, a primitive
    f gives F(u), F'(u) twice and F''(u) of F(u) = f(exp(u)).  Each part is
    within 4 ulps of mpmath.diff at 50 digits, scaled by |F|, |F'| and, for
    F'', by the larger of |F''| and |F'|: F'' is a sum of two terms of
    about |F'|, and log1p's F'' of 1e-300 at r = 1e300 rounds to 0."""
    hd, fn = _HD_PRIMITIVES[name]
    with mpmath.workdps(50):
        u = mpmath.log(mpmath.mpf(r))
        big_f = lambda x: fn(mpmath.exp(x))
        f0, f1, f2 = (float(mpmath.diff(big_f, u, n)) for n in range(3))
    x = hd(_HyperDual(r, r, r, r))
    for got, want, size in ((x.a, f0, abs(f0)), (x.b, f1, abs(f1)), (x.c, f1, abs(f1)),
                            (x.d, f2, max(abs(f2), abs(f1)))):
        assert abs(got - want) <= 4.0 * math.ulp(size), (name, r, got, want)


# ---------------------------------------------------------------------------
# the grid-call pointwise layer against its per-radius formulas
# ---------------------------------------------------------------------------


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def benchmark_radii(ex, num=200, hi=1e3):
    """The radii of the benchmark's grid-rate op: t0 + 0.1 to 1e3."""
    lo = ex.t0 + 0.1
    return [lo * (hi / lo) ** (i / (num - 1)) for i in range(num)]


# the profiles and warps of the grid and of the tests above, each with the
# radii it is evaluated at
POINTWISE = [(pr, [1.5, 3.0, 7.0, 400.0, 1e6]) for pr in PROFILES] \
    + [(pr, benchmark_radii(ex)) for ex in sharp_grid()
       for pr in (ex.profile, ex.manifold.warp)]


@pytest.mark.parametrize("profile, radii", POINTWISE, ids=[f"{i}-{pr!r}" for i, (pr, _) in enumerate(POINTWISE)])
def test_log_derivs_and_dlog_match_the_reference_bit_for_bit(profile, radii):
    """The logarithmic derivatives over a grid, scaled_derivs, give the
    reference's log v, t v'/v and v v''/v'**2 at each radius, the log v
    column is log_value's, and log_slopes gives the t v'/v column.  A
    radius at or below t_min after the grid raises the same error from
    both grid calls."""
    lvs, e1s, k2s = profile.scaled_derivs(radii)
    slopes = profile.log_slopes(radii)
    assert len(lvs) == len(e1s) == len(k2s) == len(slopes) == len(radii)
    for t, lv, e1, k2, slope in zip(radii, lvs, e1s, k2s, slopes):
        want = ref.scaled_derivs(profile, t)
        assert bits(lv) == bits(want[0]) == bits(ref.log_value(profile, t)) == bits(profile.log_value(t))
        assert bits(e1) == bits(want[1]) == bits(slope)
        assert bits(k2) == bits(want[2])
    for bad in (profile.t_min, profile.t_min - 0.5):
        for grid_call in (profile.scaled_derivs, profile.log_slopes):
            with pytest.raises(DomainError, match=re.escape(
                    f"radius must exceed {profile.t_min}, got {bad}")):
                grid_call([*radii, bad])


@pytest.mark.parametrize("ex", sharp_grid(), ids=lambda ex: f"{ex.p}-{ex.q}-{ex.mu}")
def test_residual_and_operator_match_the_reference_on_the_grid(ex):
    """subsolution_residual and p_laplacian_scaled print the bits they did,
    at the benchmark's 200 radii and at those of the verify subcommand."""
    for radii in (benchmark_radii(ex), geometric_grid(ex.t0 + 0.1, 1e3, 200)):
        got = subsolution_residual(ex.manifold, ex.profile, ex.potential, ex.p, ex.s0, radii)
        want = ref.subsolution_residual(ex.manifold, ex.profile, ex.potential, ex.p, ex.s0, radii)
        assert bits(got) == bits(want)
        for r in radii:
            assert bits(p_laplacian_scaled(ex.manifold, ex.profile, ex.p, r)) \
                == bits(ref.p_laplacian_scaled(ex.manifold, ex.profile, ex.p, r))
            assert bits(ex.potential(r)) == bits(ref.potential(ex.potential, r))
        for r, v in zip(radii, ex.potential.scaled_values(radii)):
            assert bits(v) == bits(ref.scaled_potential(ex.potential, r)[1])


def test_residual_makes_one_grid_call_per_model_object(monkeypatch):
    """On each grid example, subsolution_residual over the benchmark's 200
    radii makes one scaled_derivs call on the profile, one log_slopes call
    on the warp and one scaled_values call, and no other grid call."""
    for ex in sharp_grid():
        calls = []
        for name, obj, methods in (
                ("profile", ex.profile, ("scaled_derivs", "log_slopes")),
                ("warp", ex.manifold.warp, ("scaled_derivs", "log_slopes")),
                ("potential", ex.potential, ("scaled_values",))):
            for method in methods:
                def grid_call(radii, label=f"{name} {method}", call=getattr(obj, method)):
                    calls.append(label)
                    return call(radii)

                monkeypatch.setattr(obj, method, grid_call)
        subsolution_residual(ex.manifold, ex.profile, ex.potential, ex.p, ex.s0, benchmark_radii(ex))
        assert sorted(calls) == ["potential scaled_values", "profile scaled_derivs", "warp log_slopes"]


@pytest.mark.parametrize("manifold, profile, p, potential", [
    (ModelManifold.euclidean(3), PHarmonicRn(3, 4.0), 4.0, lambda r: 0.0),
    (ModelManifold.euclidean(2), PHarmonicRn(2, 3.0), 3.0, lambda r: 1.0 / r ** 3),
    (ModelManifold.euclidean(3), PowerLaw(2.0), 2.0, lambda r: 0.0),
    (ModelManifold(PowerLaw(-1.0)), PowerLaw(1.0), 2.0, lambda r: 0.0),
    (ModelManifold(PowerLaw(1.0)), PowerLaw(3.0), 2.5, lambda r: 2.0 / r),
    (ModelManifold(ExpPower(-1.0, 0.5)), ExpPower(2.0, 0.5), 1.5, lambda r: 0.3),
])
def test_residual_matches_the_reference_off_the_grid(manifold, profile, p, potential):
    """PowerLaw, PHarmonicRn and the zero-potential branches."""
    radii = geometric_grid(1.5, 100.0, 40)
    got = subsolution_residual(manifold, profile, potential, p, 0.0, radii)
    assert bits(got) == bits(ref.subsolution_residual(manifold, profile, potential, p, 0.0, radii))
    for r in radii:
        assert bits(p_laplacian_scaled(manifold, profile, p, r)) \
            == bits(ref.p_laplacian_scaled(manifold, profile, p, r))


@pytest.mark.parametrize("radii", [[math.inf], ["t0+1", math.inf], [math.nan], ["t0+1", -math.inf]])
def test_subsolution_residual_rejects_a_radius_that_is_not_finite(radii):
    """At (2, 3, 0) an infinite radius gave a nan defect, which the maximum
    dropped: [inf] read -inf and [t0 + 1, inf] read 0.0."""
    ex = build_sharp_example(2.0, 3.0, 0.0)
    radii = [ex.t0 + 1.0 if r == "t0+1" else r for r in radii]
    with pytest.raises(DomainError, match=f"radius {radii[-1]} is not finite"):
        subsolution_residual(ex.manifold, ex.profile, ex.potential, ex.p, ex.s0, radii)


class _NanCurvature(PowerLaw):
    """v(t) = t whose v v''/v'**2 reads nan from t = 3 on."""

    def scaled_derivs(self, radii):
        lvs, e1s, k2s = super().scaled_derivs(radii)
        return lvs, e1s, [math.nan if t >= 3.0 else k2 for t, k2 in zip(radii, k2s)]


@pytest.mark.parametrize("profile, potential", [
    (PowerLaw(1.0), lambda r: math.inf if r >= 3.0 else 1.0),
    (_NanCurvature(1.0), lambda r: 1.0),
    (_NanCurvature(1.0), lambda r: 0.0),
])
def test_subsolution_residual_raises_on_a_nan_defect(profile, potential):
    """A nan defect after a finite one is not dropped by the maximum."""
    with pytest.raises(DomainError, match=r"defect at r=3\.0 is nan"):
        subsolution_residual(ModelManifold(PowerLaw(1.0)), profile, potential, 2.0, 0.0, [2.0, 3.0])


@pytest.mark.parametrize("p, mu, r", [(3.0, 1.5, 1e300), (2.0, 2.0, 1e300), (1.5, 1.5, 1e250)])
def test_potential_past_double_range_names_the_radius(p, mu, r):
    """r**mu past the largest double raised OverflowError."""
    pot = SharpPotential(p, mu, 1.0, 1.0)
    with pytest.raises(DomainError, match=re.escape(f"potential at r={r!r} cannot be formed: r**{mu!r} exceeds")):
        pot(r)


# ---------------------------------------------------------------------------
# the r**mu-scaled operator at every radius in double range
# ---------------------------------------------------------------------------


def mp_log_derivs(profile, t):
    """v'/v and v''/v of a profile in closed form, in mpmath."""
    if isinstance(profile, PowerLaw):
        c = mpmath.mpf(profile.c)
        return c / t, c * (c - 1) / t ** 2
    if isinstance(profile, ExpPower):
        c, b = mpmath.mpf(profile.c), mpmath.mpf(profile.beta)
        d1 = c * b * t ** (b - 1)
        return d1, d1 / t * ((b - 1) + c * b * t ** b)
    if isinstance(profile, PHarmonicRn):
        a = (mpmath.mpf(profile.p) - profile.n) / (mpmath.mpf(profile.p) - 1)
        v = t ** a - 1
        return a * t ** (a - 1) / v, a * (a - 1) * t ** (a - 2) / v
    raise TypeError(profile)


# (warp, profile, p, mu): mu = p * (1 - beta) for ExpPower and mu = p
# otherwise, the weight that keeps r**mu * Delta_p(v) / v**(p-1) of order one
OPERATOR_ORACLE = [
    (ExpPower(-0.3, 0.5), ExpPower(0.7, 0.5), 2.0, 1.0),
    (ExpPower(0.4, 1.0), ExpPower(1.3, 1.0), 3.0, 0.0),
    (ExpPower(1.0, 0.25), ExpPower(0.2, 0.25), 1.5, 1.125),
    (PowerLaw(2.0), PowerLaw(1.5), 1.5, 1.5),
    (PowerLaw(4.0), PowerLaw(0.3), 3.0, 3.0),
    (PowerLaw(3.0), PHarmonicRn(2, 3.0), 3.0, 3.0),
    (PowerLaw(2.0), PHarmonicRn(3, 4.0), 4.0, 4.0),
]


@pytest.mark.parametrize("warp, profile, p, mu", OPERATOR_ORACLE, ids=lambda x: repr(x))
@pytest.mark.parametrize("r", [1.5, 10.0, 1e3, 1e9, 1e50, 1e154, 1e155, 1e200, 1e300])
def test_scaled_operator_against_mpmath(warp, profile, p, mu, r):
    """r**mu * Delta_p(v) / v**(p-1) against 50-digit mpmath from the closed
    form derivatives, within rounding of its two terms; and, where it is a
    normal double, Delta_p(v) / v**(p-1) itself from p_laplacian_scaled.
    Before, v''/v of PowerLaw formed t*t, which is inf past 1.34e154."""
    manifold = ModelManifold(warp)
    with mpmath.workdps(50):
        t = mpmath.mpf(r)
        d1, d2 = mp_log_derivs(profile, t)
        dg = mp_log_derivs(warp, t)[0]
        scale = t ** mpmath.mpf(mu)
        t1 = scale * (p - 1) * d1 ** (p - 2) * d2
        t2 = scale * dg * d1 ** (p - 1)
        exact, size = float(t1 + t2), float(abs(t1) + abs(t2))
        plain, plain_size = float((t1 + t2) / scale), float((abs(t1) + abs(t2)) / scale)
    _, e1s, k2s = profile.scaled_derivs([r])
    (g1, g2), = _operator_terms(p, mu, [r], e1s, k2s, warp.scaled_derivs([r])[1])
    assert abs(g1 + g2 - exact) <= 1e-14 * size
    if plain_size > sys.float_info.min:
        assert abs(p_laplacian_scaled(manifold, profile, p, r) - plain) <= 1e-14 * plain_size


def _condition(ex, r):
    """The condition of the relative defect of a sharp example at r, from
    the closed forms: the operator's two terms and the potential's, over
    r**mu * V.  The last is weighted by the cancellation in (p-1)*c + a,
    which every float lam of the example carries.  Rounding of relative
    size eps in any of them moves the defect by about eps times this."""
    p, a, c, pot = ex.p, ex.a, ex.c, ex.potential
    if isinstance(ex.profile, ExpPower):
        x, z = r ** pot.beta, c * pot.beta
        t1 = z ** p * (p - 1.0) * ((pot.beta - 1.0) + z * x) / (z * x)
        t2 = z ** p * a / c
        v, v_size = pot.lam * (1.0 - pot.D / x), pot.lam * (1.0 + pot.D / x)
    else:
        t1 = c ** p * (p - 1.0) * (c - 1.0) / c
        t2 = c ** p * (a + p - 1.0) / c
        v = v_size = pot.lam
    cancel = ((p - 1.0) * c + abs(a)) / abs((p - 1.0) * c + a)
    return (abs(t1) + abs(t2) + cancel * v_size) / abs(v)


@settings(max_examples=200, deadline=None)
@given(log_p=st.floats(-2.0, 1.0), log_gamma=st.floats(-3.0, 1.5),
       mu_frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_residual_on_the_sharp_examples_up_to_1e300(log_p, log_gamma, mu_frac):
    """On every sharp example that builds (the domain sweep's distribution),
    the residual at radii from t0 + 0.1 to 1e300 is at most 1e-13 wherever
    the problem's condition is at most 100, and within 16 ulps of that
    condition everywhere.  Where the condition is larger (V near 0 just
    past the positivity radius, or lam from a (p-1)*c + a that cancels), the
    example's own floats miss 1e-13; CHANGES.md records those tuples.
    Before, r**mu raised past about 1e206 and PowerLaw's t*t misread the
    residual past 1.34e154."""
    p = 1.0 + 10.0 ** log_p
    q = p - 1.0 + 10.0 ** log_gamma
    try:
        ex = build_sharp_example(p, q, p * mu_frac)
    except DomainError:
        assume(False)
    # past about 1e13, log v does not resolve t0 + 0.1 from t0 (verify's
    # first radius), so the grid starts 1e-9 relative past t0 there
    lo = max(ex.t0 + 0.1, ex.t0 * (1.0 + 1e-9))
    assume(lo < 1e300)
    for r in geometric_grid(lo, 1e300, 25):
        res = abs(subsolution_residual(ex.manifold, ex.profile, ex.potential, ex.p, ex.s0, [r]))
        cond = _condition(ex, r)
        assert res <= 16.0 * 2.0 ** -52 * cond
        if cond <= 100.0:
            assert res <= 1e-13
