"""Tests for ball and energy integrals, rate fits, and inequality checks.

Frozen numbers fall in three classes: closed-form antiderivatives evaluated
by hand, 40-digit mpmath quadratures run separately and recorded here, and
margins that were cross-checked against an mpmath session when they were
frozen. Every expectation is independent of the code under test.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import growthlab.growth as growth
import growthlab.quadrature as quadrature
from growthlab import (
    DomainError,
    QuadratureError,
    GrowthSample,
    build_sharp_example,
    check_caccioppoli,
    check_growth_lower_bound,
    check_surface_capacity,
    classify_l1_condition,
    compute_C0,
    default_check_pairs,
    estimate_rate,
    growth_samples,
    log_ball_integral,
    log_energy_integral,
    log_quad,
    log_sphere_integral,
    measure_rate,
    rate_window,
    run_inequality_suite,
    sharp_grid,
    sphere_log_slope,
    ModelManifold,
    PHarmonicRn,
    PowerLaw,
    RadialProfile,
)
from growthlab.models import _log_excess, _log_excess_of, log_sphere_integral
from logspace import log_diff

EX_DECAY = build_sharp_example(2.0, 3.0, 1.0)
EX_CONST = build_sharp_example(2.0, 2.0, 0.0)
EX_BORDER = build_sharp_example(2.0, 2.0, 2.0)
EX_SINGULAR = build_sharp_example(2.0, 1.5, 0.0)
EX_ADJUSTED = build_sharp_example(3.0, 4.0, 1.5)


# ---------------------------------------------------------------------
# ball and sphere integrals
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "R,expected",
    [(6.0, 9.254656662993946756126), (20.0, 20.22191470431814137208)],
)
def test_ball_integral_frozen_mpmath(R, expected):
    sample = log_ball_integral(EX_DECAY.manifold, EX_DECAY.profile, EX_DECAY.q, EX_DECAY.s0, R)
    assert sample.logG == pytest.approx(expected, rel=1e-12)
    assert sample.quad_error <= 1e-11


@pytest.mark.parametrize("R", [5.0, 12.0])
def test_ball_integral_exponential_closed_form(R):
    """a = 0 warp: the integrand expands to a sum of exponentials."""
    s0, t0 = EX_CONST.s0, EX_CONST.t0

    def F(t):
        return math.exp(2.0 * t) / 2.0 - 2.0 * s0 * math.exp(t) + s0 ** 2 * t

    expected = math.log(2.0 * math.pi) + math.log(F(R) - F(t0))
    sample = log_ball_integral(EX_CONST.manifold, EX_CONST.profile, EX_CONST.q, EX_CONST.s0, R)
    assert sample.logG == pytest.approx(expected, abs=1e-10)


def test_ball_integral_fractional_power_frozen():
    sample = log_ball_integral(EX_SINGULAR.manifold, EX_SINGULAR.profile, EX_SINGULAR.q, EX_SINGULAR.s0, 6.0)
    assert sample.logG == pytest.approx(13.14340880591216424556698, rel=1e-12)


@pytest.mark.parametrize("R", [5.0, 10.0, 100.0, 1e3, 1e6])
def test_ball_integral_borderline_antiderivative(R):
    """g = t, v = t: 2 pi t (t - 2)^2 integrates in closed form."""

    def F(t):
        return t ** 4 / 4.0 - 4.0 * t ** 3 / 3.0 + 2.0 * t ** 2

    expected = math.log(2.0 * math.pi) + math.log(F(R) - F(EX_BORDER.t0))
    sample = log_ball_integral(EX_BORDER.manifold, EX_BORDER.profile, EX_BORDER.q, EX_BORDER.s0, R)
    assert sample.logG == pytest.approx(expected, abs=1e-10)


def test_ball_integral_below_start_is_empty():
    sample = log_ball_integral(EX_DECAY.manifold, EX_DECAY.profile, EX_DECAY.q, EX_DECAY.s0, EX_DECAY.t0)
    assert sample.logG == -math.inf
    assert sample.quad_error == 0.0


def test_growth_samples_monotone():
    radii = [5.0, 10.0, 20.0]
    samples = growth_samples(EX_DECAY.manifold, EX_DECAY.profile, EX_DECAY.q, EX_DECAY.s0, radii)
    logs = [s.logG for s in samples]
    assert logs == sorted(logs)
    assert all(s.quad_error <= 1e-10 for s in samples)


def test_sphere_integral_frozen():
    # v = t at level 4: area 8 pi times (4 - 2)^2 is 32 pi
    r = EX_BORDER.profile.level_radius(4.0)
    got = log_sphere_integral(EX_BORDER.manifold, EX_BORDER.profile, EX_BORDER.q, EX_BORDER.s0, r)
    assert r == pytest.approx(4.0, rel=1e-14)
    assert got == pytest.approx(math.log(32.0 * math.pi), rel=1e-13)


def test_sphere_integral_off_support():
    got = log_sphere_integral(EX_BORDER.manifold, EX_BORDER.profile, EX_BORDER.q, EX_BORDER.s0, 1.5)
    assert got == -math.inf
    with pytest.raises(DomainError):
        log_sphere_integral(EX_BORDER.manifold, EX_BORDER.profile, 0.0, EX_BORDER.s0, 5.0)


@pytest.mark.parametrize("ex", [EX_DECAY, EX_BORDER, EX_SINGULAR])
def test_log_excess_array_matches_scalar_loop(ex):
    """Below, near and far above the level, as one array and one radius at a time.

    The array form takes log v from numpy, within a few ulps of log v from
    math, and log(v - s0) amplifies an error in log v by
    1 / (1 - exp(-d)) < 1 + 1/d with d = log v - log s0, which sets the bound.
    """
    s = np.concatenate([np.linspace(0.5 * ex.t0, ex.t0, 5),
                        ex.t0 * (1.0 + np.geomspace(1e-12, 1e3, 20))])
    log_s0 = math.log(ex.s0)
    lvs = ex.profile.log_value(s)
    got = _log_excess_of(log_s0, lvs, lvs - log_s0)
    for x, r in zip(got.tolist(), s.tolist()):
        ref = _log_excess(ex.profile, log_s0, r)
        assert type(ref) is float
        if ref == -math.inf:
            assert x == ref
        else:
            lv = ex.profile.log_value(r)
            bound = 8 * 2.0 ** -52 * max(1.0, abs(lv)) * (1.0 + 1.0 / (lv - log_s0))
            assert abs(x - ref) <= max(bound, 8 * 2.0 ** -52 * abs(ref))


# ---------------------------------------------------------------------
# energy integrals
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "R,expected",
    [(6.0, 7.792045552601026291322942), (20.0, 16.12210488576347832738994)],
)
def test_energy_integral_frozen_mpmath(R, expected):
    logH, err = log_energy_integral(EX_DECAY.manifold, EX_DECAY.profile, EX_DECAY.p, EX_DECAY.q, EX_DECAY.s0, R)
    assert logH == pytest.approx(expected, rel=1e-12)
    assert err <= 1e-11


@pytest.mark.parametrize(
    "R,expected",
    [(4.0, 10.54502839509455129809756), (8.0, 18.53103563314856639461068)],
)
def test_energy_integral_singular_edge_frozen(R, expected):
    """q < p: the integrand blows up like (v - s0)^(q - p) at the start."""
    logH, err = log_energy_integral(
        EX_SINGULAR.manifold, EX_SINGULAR.profile, EX_SINGULAR.p, EX_SINGULAR.q, EX_SINGULAR.s0, R
    )
    assert logH == pytest.approx(expected, rel=1e-11)
    assert err <= 1e-9


# log of the integral of g * (v - s0)**(q - p) * (v')**p over (t0, t0 + 1), the
# singular-edge piece of H, from a separate 60-digit mpmath session (checked at
# 90 digits).  It integrates in tau = (s - t0)**gamma over the same double
# interval (0, ((t0 + 1) - t0)**gamma] as the code, with s = t0 + tau**(1/gamma)
# and the excess s0 * expm1(c t0**beta expm1(beta log1p(eta/t0))), so that
# v(t0) = s0 exactly as in the code; the raw difference (t0 + eta)**beta -
# t0**beta cancels to 0 even at 40 digits.
EDGE_ORACLES = [
    ((2.0, 1.5, 0.0), "5.529689316137453575933135441253198585809"),  # gamma = 0.5
    ((1.5, 0.625, 0.75), "4.294068706752794165456490923037133318204"),  # 0.125
    ((1.5, 0.52, 0.75), "3.811001678838035684837216783239765493253"),  # 0.02
]


@pytest.mark.parametrize("pq_mu, expected", EDGE_ORACLES)
def test_singular_edge_piece_frozen_mpmath(pq_mu, expected, monkeypatch):
    """H at R = t0 + 2 splits at t1 = t0 + 1; its edge table is the piece."""
    ex = build_sharp_example(*pq_mu)
    tables, seen = growth.log_quad_tables, []

    def spy(logf, specs, **kwargs):
        results = tables(logf, specs, **kwargs)
        seen.append((specs[growth._H_EDGE], results[growth._H_EDGE]))
        return results

    monkeypatch.setattr(growth, "log_quad_tables", spy)
    log_energy_integral(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, ex.t0 + 2.0)
    [(spec, [res])] = seen
    assert spec == (0.0, [((ex.t0 + 1.0) - ex.t0) ** (ex.q - ex.p + 1.0)])
    assert abs(res.log_value - float(expected)) <= 1e-14
    assert res.rel_error <= 1e-12


# log G and log H at R = t0 + 1 across a support edge that is not singular:
# G's (alpha = q + 1) and H's for q > p (alpha = gamma > 1), from a separate
# 40-digit mpmath session: tanh-sinh in eta = s - t0, which agreed to 1e-40
# with a 60-digit run and with Gauss-Legendre in eta = u**k.  As for
# EDGE_ORACLES, the excess is s0 * expm1(c t0**beta expm1(beta log1p(eta/t0)))
# with the double t0 and s0, so that v(t0) = s0 exactly as in the code.
SUPPORT_EDGE_ORACLES = [
    ((1.5, 0.625, 0.0), "G", "4.321660665606050680783146387701441309656"),
    ((1.5, 0.75, 0.75), "G", "1.662857361529392093161710576393368034596"),
    ((1.5, 1.75, 0.75), "G", "1.513996404856073033281614632082064540889"),
    ((1.5, 1.75, 0.0), "H", "6.00269654203608832304161505577780668598"),
    ((1.5, 1.75, 0.75), "H", "2.2731054332376221322274923677101158739"),
]


@pytest.mark.parametrize("pq_mu, functional, expected", SUPPORT_EDGE_ORACLES)
def test_support_edge_frozen_mpmath(pq_mu, functional, expected):
    ex = build_sharp_example(*pq_mu)
    R = ex.t0 + 1.0
    if functional == "G":
        log_value = log_ball_integral(ex.manifold, ex.profile, ex.q, ex.s0, R).logG
    else:
        log_value, _ = log_energy_integral(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, R)
    assert abs(log_value - float(expected)) <= 2e-15


def test_integrals_without_truncation_closed_form():
    """s0 = 0 leaves G and H no edge table, so every node takes log_value.

    With g(s) = s, v(s) = s and p = q = 2 on omega = 2 pi: G(R) = 2 pi R^4/4,
    H(R) = 2 pi R^2/2 and J(r, R) = (1/(2 r^2) - 1/(2 R^2)) / (2 pi).
    """
    manifold, profile = ModelManifold(PowerLaw(1.0)), PowerLaw(1.0)
    G, H, J = growth._integrals(manifold, profile, 2.0, 2.0, 0.0, [3.0],
                                [2.0], [(1.0, 3.0)], 1e-12)
    for (got, _), expected in [
        (G[0], math.log(2.0 * math.pi * 3.0 ** 4 / 4.0)),
        (H[0], math.log(2.0 * math.pi * 2.0 ** 2 / 2.0)),
        (J[0], math.log((0.5 - 1.0 / 18.0) / (2.0 * math.pi))),
    ]:
        assert abs(got - expected) <= 4 * math.ulp(expected)


def test_energy_integral_neutral_power_closed_form():
    # q = p removes the excess factor: H(R) = pi (e^(2R) - e^(2 t0))
    ex = EX_CONST
    R = 3.0
    logH, _ = log_energy_integral(ex.manifold, ex.profile, ex.p, 2.0, ex.s0, R)
    expected = math.log(math.pi) + log_diff(2.0 * R, 2.0 * ex.t0)
    assert logH == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------
# two-sided envelope for the sub-borderline ball integral
# ---------------------------------------------------------------------


@pytest.mark.parametrize("pq_mu", [(2.0, 3.0, 0.0), (2.0, 3.0, 1.0), (1.5, 0.75, 0.75)])
def test_ball_integral_two_sided_envelope(pq_mu):
    """logG sits between integration-by-parts bounds at R = 50.

    Upper: drop the (1 - s0/v)^q factor and bound the remaining
    exponential integral by its value at the endpoint. Lower: freeze the
    increasing factor at an interior point t1 and bound the derivative of
    exp(kappa t^beta) t^(1-beta) from above on [t1, R].
    """
    ex = build_sharp_example(*pq_mu)
    R = 50.0
    kappa, beta = ex.kappa, ex.beta
    logw = math.log(ex.manifold.omega)
    sample = log_ball_integral(ex.manifold, ex.profile, ex.q, ex.s0, R)
    upper = logw + kappa * R ** beta + (1.0 - beta) * math.log(R) - math.log(kappa * beta)
    t1 = 0.5 * (ex.t0 + R)
    a2 = kappa * beta + (1.0 - beta) * t1 ** (-beta)
    body = log_diff(
        kappa * R ** beta + (1.0 - beta) * math.log(R),
        kappa * t1 ** beta + (1.0 - beta) * math.log(t1),
    )
    lower = logw + ex.q * math.log1p(-ex.s0 / ex.profile.value(t1)) + body - math.log(a2)
    assert lower - 1e-9 <= sample.logG <= upper + 1e-9


# ---------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------


def test_estimate_rate_power_exact():
    A, beta, B, C = 2.5, 0.5, 1.2, -3.0
    radii = np.logspace(1.0, 3.0, 8)
    samples = [GrowthSample(r, A * r ** beta + B * math.log(r) + C, 0.0) for r in radii]
    est = estimate_rate(samples, beta)
    assert est.rate == pytest.approx(A * beta, rel=1e-10)
    assert est.fit_residual <= 1e-9
    assert est.regime == "power"
    assert est.n_samples == 8


def test_estimate_rate_log_exact():
    radii = np.logspace(2.0, 5.0, 6)
    samples = [GrowthSample(r, 4.5 * math.log(r) - 2.0, 0.0) for r in radii]
    est = estimate_rate(samples, 0.0)
    assert est.rate == pytest.approx(4.5, rel=1e-12)
    assert est.regime == "log"
    assert est.window == (pytest.approx(100.0), pytest.approx(1e5))


def test_estimate_rate_validation():
    radii = [10.0, 20.0, 40.0, 80.0]
    samples = [GrowthSample(r, math.log(r), 0.0) for r in radii]
    with pytest.raises(DomainError):
        estimate_rate(samples[:3], 0.0)
    with pytest.raises(DomainError, match="beta must be finite and nonnegative"):
        estimate_rate(samples, -0.5)
    with pytest.raises(DomainError, match="beta must be finite and nonnegative"):
        estimate_rate(samples, math.nan)
    with pytest.raises(DomainError):
        estimate_rate(list(reversed(samples)), 0.0)
    with pytest.raises(DomainError):
        estimate_rate(samples[:3] + [GrowthSample(160.0, -math.inf, 0.0)], 0.0)


@pytest.mark.parametrize("beta", [math.inf, 1e308])
def test_estimate_rate_rejects_a_design_matrix_past_double_range(beta):
    """LAPACK does not return on an inf design matrix; R**1e308 overflows."""
    samples = [GrowthSample(r, math.log(r), 0.0) for r in [10.0, 20.0, 40.0, 80.0]]
    with pytest.raises(DomainError, match="beta"):
        estimate_rate(samples, beta)


def test_estimate_rate_rejects_an_infinite_radius():
    samples = [GrowthSample(r, 1.0, 0.0) for r in [10.0, 20.0, 40.0, math.inf]]
    with pytest.raises(DomainError, match=r"log R finite at every sample radius in \[10.0, inf\]"):
        estimate_rate(samples, 0.0)


@pytest.mark.parametrize("num", [5.5, 7.0, "7"])
def test_rate_window_rejects_a_num_that_is_not_an_integer(num):
    with pytest.raises(DomainError, match="num must be an integer"):
        measure_rate(EX_DECAY, num=num)


def test_rate_window_power():
    radii = rate_window(build_sharp_example(2.0, 3.0, 0.0))
    # kappa = 4, beta = 1: the last radius solves 4 R = 1e4
    assert radii[-1] == pytest.approx(2500.0, rel=1e-12)
    assert radii[0] == pytest.approx(2500.0 / 30.0, rel=1e-12)
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_rate_window_borderline_default():
    radii = rate_window(EX_BORDER)
    assert radii[0] == pytest.approx(1e4, rel=1e-12)
    assert radii[-1] == pytest.approx(1e6, rel=1e-12)


def test_rate_window_power_matches_loop_formula():
    # radii solve kappa * beta * R**beta = x on a geometric grid 1e4/30 .. 1e4
    radii = rate_window(EX_DECAY)
    kb, beta = EX_DECAY.kappa * EX_DECAY.beta, EX_DECAY.beta
    ref = [(1e4 / 30.0 * 30.0 ** (i / 6) / kb) ** (1.0 / beta) for i in range(7)]
    assert radii == pytest.approx(ref, rel=64 * sys.float_info.epsilon)


@pytest.mark.parametrize("rmax", [0.0, -5.0, math.inf, math.nan])
@pytest.mark.parametrize("ex", [EX_DECAY, EX_BORDER])
def test_rate_window_rejects_bad_rmax(ex, rmax):
    with pytest.raises(DomainError, match="rmax must be finite and positive"):
        rate_window(ex, rmax=rmax)


def test_measure_rate_window_past_double_range():
    # beta = 0.007 puts the window's radii past the largest double
    with pytest.raises(DomainError, match="largest double"):
        measure_rate(build_sharp_example(2.0, 3.0, 1.986))


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.5, 4.0), log_gamma=st.floats(-0.5, 0.5),
       mu_frac=st.floats(0.0, 0.5), log_x=st.floats(2.5, 3.5),
       k=st.integers(2, 5))
def test_top_end_panels_match_default_panels(p, log_gamma, mu_frac, log_x, k):
    """G over a rate-window segment that gets top-end initial panels agrees
    with a rel_tol=1e-14 log_quad on the default panels, from t0, within the
    claimed errors and the rounding of the log value itself."""
    try:
        ex = build_sharp_example(p, p - 1.0 + 10.0 ** log_gamma, p * mu_frac)
        # kappa * beta * rmax**beta = 10**log_x, the window's log-growth
        rmax = (10.0 ** log_x / (ex.kappa * ex.beta)) ** (1.0 / ex.beta)
        radii = rate_window(ex, rmax=rmax)
    except DomainError:
        assume(False)
    lo, hi = radii[k], radii[k + 1]
    assume(growth._top_width(ex.manifold, ex.profile, ex.q, lo, hi) is not None)
    got = growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, [lo, hi])[1]
    ref = log_quad(np.vectorize(lambda s: log_sphere_integral(
        ex.manifold, ex.profile, ex.q, ex.s0, s), otypes=[float]),
        ex.t0, hi, rel_tol=1e-14)
    assert abs(math.expm1(got.logG - ref.log_value)) \
        <= got.quad_error + ref.rel_error + 4 * math.ulp(ref.log_value)


class _LinearNoSlope(RadialProfile):
    """v(t) = t, with no dlog."""

    def log_value(self, t):
        return np.log(t)


@pytest.mark.parametrize("warp, profile, log_g", [
    # a warp that shrinks as fast as v**2 grows: g * v**2 = 1, G = 2 pi R
    (PowerLaw(-2.0), PowerLaw(1.0), math.log(2.0 * math.pi * 1e6)),
    # a profile that does not give its slope: G = 2 pi R**4 / 4
    (PowerLaw(1.0), _LinearNoSlope(), math.log(0.5 * math.pi) + 24.0 * math.log(10.0)),
])
def test_top_end_panels_fall_back_without_a_known_positive_slope(warp, profile, log_g):
    manifold = ModelManifold(warp)
    assert growth._top_width(manifold, profile, 2.0, 1.0, 1e6) is None
    [sample] = growth_samples(manifold, profile, 2.0, 0.0, [1e6])
    assert abs(sample.logG - log_g) <= 1e-12


def test_measure_rate_rejects_infinite_rel_tol():
    with pytest.raises(DomainError, match="rel_tol must be finite and positive, got inf"):
        measure_rate(EX_DECAY, rel_tol=math.inf)


@pytest.mark.parametrize("integrate", [
    lambda ex: growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, [10.0, math.inf]),
    lambda ex: check_caccioppoli(ex, 10.0, h=math.inf),
    lambda ex: check_surface_capacity(ex, 10.0, math.inf),
    lambda ex: check_growth_lower_bound(ex, 10.0, math.inf),
])
def test_infinite_radius_named(integrate):
    # RuntimeWarnings are errors here, so none may be raised on the way
    with pytest.raises(DomainError, match="integration radius inf is not finite"):
        integrate(EX_DECAY)


def test_measure_rate_power():
    est = measure_rate(build_sharp_example(2.0, 3.0, 0.0))
    assert est.rate == pytest.approx(4.0, rel=1e-6)


def test_measure_rate_borderline():
    est = measure_rate(EX_BORDER)
    target = compute_C0(2.0, 2.0, 1.0) + 2.0
    assert est.rate == pytest.approx(target, rel=5e-3)
    assert est.window[0] == pytest.approx(1e4, rel=1e-12)
    assert est.window[1] == pytest.approx(1e6, rel=1e-12)


# ---------------------------------------------------------------------
# inequality checks (frozen margins)
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "R1,R,margin",
    [
        (3.0, 10.0, 5.732809740164132),
        (5.0, 50.0, 4.9785840656266895),
        (2.5, 1e3, 10.998488757217544),
    ],
)
def test_growth_lower_bound_borderline_frozen(R1, R, margin):
    rep = check_growth_lower_bound(EX_BORDER, R1, R)
    assert rep.passed
    assert rep.name == "growth-lower-bound"
    assert rep.margin == pytest.approx(margin, rel=1e-10)
    assert rep.tolerance == pytest.approx(1e-8, rel=1e-3)


def test_growth_lower_bound_decay_frozen():
    t0 = EX_DECAY.t0
    cases = [
        (t0 + 0.2, t0 + 2.0, 10.482227173946185),
        (4.0, 9.0, 5.715582316101715),
        (3.0, 30.0, 14.856453230856484),
    ]
    for R1, R, margin in cases:
        rep = check_growth_lower_bound(EX_DECAY, R1, R)
        assert rep.passed
        assert rep.margin == pytest.approx(margin, rel=1e-10)


@pytest.mark.parametrize(
    "R,h,margin",
    [
        (10.0, math.sqrt(10.0), 5.076892150491977),
        (10.0, 10.0, 4.609560534289386),
        (100.0, 100.0, 4.825607126473127),
    ],
)
def test_caccioppoli_frozen(R, h, margin):
    rep = check_caccioppoli(EX_BORDER, R, h)
    assert rep.passed
    assert rep.margin == pytest.approx(margin, rel=1e-10)


def test_caccioppoli_default_h():
    """The default test width is R^(mu/p), here equal to R itself."""
    rep = check_caccioppoli(EX_BORDER, 10.0)
    assert rep.margin == pytest.approx(4.609560534289386, rel=1e-10)


def test_surface_capacity_frozen():
    rep = check_surface_capacity(EX_BORDER, 5.0, 50.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(4.189252323572823, rel=1e-10)
    assert rep.rhs == pytest.approx(5.088525004354866, rel=1e-10)
    assert rep.margin == pytest.approx(0.899272680782043, rel=1e-9)
    assert check_surface_capacity(EX_BORDER, 4.0, 400.0).margin == pytest.approx(
        0.7759629638407319, rel=1e-9
    )
    assert check_surface_capacity(EX_BORDER, 10.0, 100.0).margin == pytest.approx(
        1.1400222283191015, rel=1e-9
    )


def test_inequality_suite_shape():
    reports = run_inequality_suite(EX_BORDER)
    assert len(reports) == 9
    names = [r.name for r in reports]
    assert sum(n.startswith("growth-lower-bound(") for n in names) == 3
    assert sum(n.startswith("annulus-caccioppoli(") for n in names) == 3
    assert sum(n.startswith("surface-capacity(") for n in names) == 3
    assert all(r.passed for r in reports)
    assert all(r.margin >= -r.tolerance for r in reports)


@pytest.mark.parametrize("pq_mu", [(2.0, 2.0, 2.0), (2.0, 1.5, 0.0), (3.0, 4.0, 1.5), (1.5, 0.625, 0.75)])
def test_inequality_suite_matches_public_checks(pq_mu):
    """The suite's shared G and H tables give each public check's sides."""
    ex = build_sharp_example(*pq_mu)
    pairs = default_check_pairs(ex)
    singles = [check_growth_lower_bound(ex, r1, r) for r1, r in pairs["growth-lower-bound"]]
    singles += [check_caccioppoli(ex, r) for r in pairs["annulus-caccioppoli"]]
    singles += [check_surface_capacity(ex, r1, r) for r1, r in pairs["surface-capacity"]]
    suite = run_inequality_suite(ex)
    assert len(suite) == len(singles) == 9
    for rep, single in zip(suite, singles):
        assert rep.name.startswith(single.name + "(")
        assert rep.lhs == pytest.approx(single.lhs, rel=1e-12)
        assert rep.rhs == pytest.approx(single.rhs, rel=1e-12)
        assert rep.passed and single.passed


def test_growth_samples_match_single_radius_integrals():
    """One cumulative pass agrees with separate integrals from t0."""
    ex = EX_SINGULAR
    radii = [ex.t0 - 1.0, ex.t0, 4.0, 6.0, 8.0, 30.0]
    samples = growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, radii)
    assert [s.logG for s in samples[:2]] == [-math.inf, -math.inf]
    for s in samples[2:]:
        single = log_ball_integral(ex.manifold, ex.profile, ex.q, ex.s0, s.R)
        assert s.logG == pytest.approx(single.logG, rel=1e-12)
        assert s.quad_error <= 1e-11


def test_growth_lower_bound_with_amplitude_reduction():
    """Far from the positivity radius the reduced amplitude still passes."""
    ex = EX_ADJUSTED
    R1 = 1.5 * ex.t0
    eps = ex.eps_for_radius(R1)
    assert 0.0 < eps < ex.lam
    rep = check_growth_lower_bound(ex, R1, 6.0 * ex.t0, eps=eps)
    assert rep.passed
    with pytest.raises(DomainError):
        check_growth_lower_bound(ex, R1, 6.0 * ex.t0, eps=ex.lam)


# ---------------------------------------------------------------------
# integrability classification and slow growth helpers
# ---------------------------------------------------------------------


def test_sphere_log_slope_euclidean_frozen():
    manifold = ModelManifold.euclidean(2)
    profile = PHarmonicRn(2, 3.0)
    slope = sphere_log_slope(manifold, profile, 3.0, 0.0, 1e4, 1e8)
    assert slope == pytest.approx(2.5027406165648536, rel=1e-12)
    assert slope == pytest.approx(2.5, rel=1e-2)


def test_classify_l1_condition():
    assert classify_l1_condition(1.0, 2.0) == "condition_holds"
    assert classify_l1_condition(-math.inf, 2.0) == "condition_holds"
    assert classify_l1_condition(2.5, 3.0) == "condition_fails"
    assert classify_l1_condition(2.5, 3.0, finite_radius_infinite=True) == "holds_only_for_small_r"
    # at the exact threshold the reciprocal power is 1, which integrates
    assert classify_l1_condition(2.0, 3.0) == "condition_holds"


# ---------------------------------------------------------------------
# exact work per sweep over the grid
# ---------------------------------------------------------------------


def _count_work(monkeypatch):
    """Sum integrals, panels and evals over growth's calls to its integrator."""
    work = {"integrals": 0, "panels": 0, "evals": 0}
    tables = growth.log_quad_tables

    def counted_tables(logf, specs, **kwargs):
        results = tables(logf, specs, **kwargs)
        for (lo, radii, *_), table in zip(specs, results):
            # one segment per distinct radius above lo; the last result sums them
            if table:
                work["integrals"] += len({R for R in radii if R > lo})
                work["panels"] += table[-1].panels
                work["evals"] += table[-1].evals
        return results

    monkeypatch.setattr(growth, "log_quad_tables", counted_tables)
    return work


def test_suite_sweep_exact_work(monkeypatch):
    work = _count_work(monkeypatch)
    for ex in sharp_grid():
        run_inequality_suite(ex)
    # three G segments of (3, 6, 0) and (3, 7, 0) span the top-end cluster
    assert work == {"integrals": 459, "panels": 3888, "evals": 61290}


def test_rate_sweep_exact_work(monkeypatch):
    work = _count_work(monkeypatch)
    for ex in sharp_grid():
        measure_rate(ex)
    # no G edge in the 18 power-regime examples: 18 integrals fewer
    assert work == {"integrals": 198, "panels": 2598, "evals": 42840}


def _batches_per_example(monkeypatch, run):
    """Integrand batches of run(example) for each example of the grid."""
    batches = [0]
    panels = quadrature._panels

    def counted(*args):
        batches[0] += 1
        return panels(*args)

    monkeypatch.setattr(quadrature, "_panels", counted)
    per_example = []
    for ex in sharp_grid():
        batches[0] = 0
        run(ex)
        per_example.append(batches[0])
    return per_example


def test_sweep_integrand_batches(monkeypatch):
    """One refinement per example: every G, edge, H and J integral of a
    suite call shares each round's integrand call, the support edges,
    integrated in tau, need no bisection toward t0, and a rate window's
    segments start with their ends clustered where their mass lies."""
    per_example = _batches_per_example(monkeypatch, run_inequality_suite)
    assert sum(per_example) == 80
    assert max(per_example) <= 5
    per_example = _batches_per_example(monkeypatch, measure_rate)
    assert sum(per_example) == 48
    assert all(n <= 2 for ex, n in zip(sharp_grid(), per_example)
               if not ex.is_borderline)


def test_top_end_panels_never_cost_a_batch(monkeypatch):
    """With no segment given top-end panels, and so G's edge table wherever
    there is an edge, each grid example needs at least as many rate
    batches: 178 per sweep, 9 to 11 per power-regime example."""
    clustered = _batches_per_example(monkeypatch, measure_rate)
    monkeypatch.setattr(growth, "_top_width", lambda *args: None)
    default = _batches_per_example(monkeypatch, measure_rate)
    assert sum(default) == 178
    assert all(n <= m for n, m in zip(clustered, default))


# ---------------------------------------------------------------------
# which failure is raised when several integrals fail
# ---------------------------------------------------------------------


def test_g_failure_raised_before_the_edge():
    """At gamma = 0.01 the singular edge of H runs out of panels, and at
    rel_tol=1e-100 so does G past its own edge, over (t0 + 1, b + 1): G's
    failure is the one raised, as G alone."""
    ex = build_sharp_example(1.5, 0.51, 0.75)
    b = default_check_pairs(ex)["annulus-caccioppoli"][0]
    with pytest.raises(QuadratureError) as alone:
        growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, [b + 1.0], rel_tol=1e-100)
    with pytest.raises(QuadratureError) as info:
        check_caccioppoli(ex, b, h=1.0, rel_tol=1e-100)
    assert (str(info.value), info.value.panels) == (str(alone.value), alone.value.panels)
    assert str(info.value).startswith(f"needed more than 4096 panels on [{ex.t0 + 1.0}, ")
    with pytest.raises(QuadratureError, match=r"panels on \[0\.0, "):
        check_caccioppoli(ex, b)


def test_integral_failure_raised_before_bad_eps():
    """The suite integrates G and H before it forms the comparison constants."""
    ex = build_sharp_example(2.0, 1.01, 0.0)  # gamma = 0.01: the edge runs out of panels
    with pytest.raises(QuadratureError, match=r"panels on \[0\.0, "):
        run_inequality_suite(ex, eps=1e9)
    with pytest.raises(DomainError, match="eps must lie in"):
        run_inequality_suite(EX_SINGULAR, eps=1e9)
