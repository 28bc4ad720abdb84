"""Tests for radial profiles, model manifolds, and the radial operator.

High-precision expectations were computed with mpmath at 60 digits inside
the tests, so every profile formula is checked against an independent
evaluation rather than against itself.
"""

import math

import mpmath
import numpy as np
import pytest

from growthlab import (
    DomainError,
    ExpPower,
    ModelManifold,
    PHarmonicRn,
    PowerLaw,
    SharpPotential,
    build_sharp_example,
    fd_cross_check,
    p_laplacian_scaled,
    sharp_grid,
    subsolution_residual,
)

from growthlab.models import geometric_grid

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
    assert profile.d2_over_v(t) == pytest.approx(float(d2 / v(mpmath.mpf(t))), rel=1e-11, abs=1e-14)
    assert profile.dlog(t) == pytest.approx(float(d1 / v(mpmath.mpf(t))), rel=1e-12)


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
    assert profile.value(r) == pytest.approx(s, rel=1e-11)


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
    area = ModelManifold.euclidean(3).log_sphere_area(2.0)
    assert area == pytest.approx(math.log(16.0 * math.pi), rel=1e-13)


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


def test_fd_cross_check_families():
    cases = [
        (ModelManifold(PowerLaw(1.0)), PowerLaw(1.0), 2.0, 5.0),
        (ModelManifold.euclidean(3), PHarmonicRn(3, 4.0), 4.0, 9.0),
        (ModelManifold(ExpPower(2.0, 1.0)), ExpPower(4.0, 1.0), 3.0, 1000.0),
        (ModelManifold(ExpPower(-1.0, 0.5)), ExpPower(1.0, 0.5), 1.5, 500.0),
    ]
    for manifold, profile, p, r in cases:
        dev = fd_cross_check(manifold, profile, p, r)
        assert dev <= 1e-6


def test_fd_cross_check_grid():
    for ex in sharp_grid():
        r = ex.t0 + 3.0
        assert fd_cross_check(ex.manifold, ex.profile, ex.p, r) <= 1e-6
