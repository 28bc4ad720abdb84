"""Tests for ball and energy integrals, rate fits, and inequality checks.

Frozen numbers fall in three classes: closed-form antiderivatives evaluated
by hand, 40-digit mpmath quadratures run separately and recorded here, and
margins that were cross-checked against an mpmath session when they were
frozen. Every expectation is independent of the code under test.
"""

import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    ExpPower,
    ModelManifold,
    PHarmonicRn,
    PowerLaw,
    RadialProfile,
)
from growthlab.models import _log_excess_of, log_sphere_integral
import closed_form
import integrand_reference
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
    # numpy's warnings off, as quadrature._panels runs the integrand
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got = _log_excess_of(log_s0, lvs, lvs - log_s0)
    for x, r in zip(got.tolist(), s.tolist()):
        lv = ex.profile.log_value(r)
        ref = _log_excess_of(log_s0, lv, lv - log_s0)
        assert type(ref) is float
        if ref == -math.inf:
            assert x == ref
        else:
            bound = 8 * 2.0 ** -52 * max(1.0, abs(lv)) * (1.0 + 1.0 / (lv - log_s0))
            assert abs(x - ref) <= max(bound, 8 * 2.0 ** -52 * abs(ref))


# (log s0, d): v = s0 * e**d anywhere in double range, and v near 1, where
# |log v| <= 1 and log(v - s0) lies near 0 for d in [0.6, 40]
_EXCESS_CASES = st.one_of(
    st.tuples(st.floats(-700.0, 700.0),
              st.one_of(st.floats(1e-300, 1e4),
                        st.floats(-300.0, 4.0).map(lambda e: 10.0 ** e))),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.6, 40.0)).map(
        lambda lv_d: (lv_d[0] - lv_d[1], lv_d[1])))


@settings(max_examples=200, deadline=None)
@example(case=(0.0, 0.7))
@example(case=(0.0, math.nextafter(0.7, 0.0)))
@example(case=(-700.0, 0.7))
@example(case=(700.0, 1e-300))
@example(case=(-700.0, 1e4))
@example(case=(-0.6, 0.6))
@example(case=(-41.0, 40.0))
@given(case=_EXCESS_CASES)
def test_log_excess_matches_mpmath(case):
    """log(v - s0) with v = s0 * e**d, against 50-digit mpmath, for one
    radius (floats) and for an array of radii, from the inputs its callers
    give it, lv = log s0 + d: within a few ulps of the largest of |log s0|,
    d and |log(v - s0)|, and from d = 0.6 on within 2 ulps of the larger of
    |log v| and 1.  log(1 - e**-d) reaches the integrands only through exp,
    so that absolute error is what counts, also where the result is near 0
    and the error is many of its own ulps."""
    log_s0, d = case
    with mpmath.workdps(50):
        exact = mpmath.mpf(log_s0) + mpmath.mpf(d) + mpmath.log(-mpmath.expm1(-mpmath.mpf(d)))
        ref = float(exact)
    scale = math.ulp(max(abs(log_s0), d, abs(ref)))
    lv = log_s0 + d
    one = _log_excess_of(log_s0, lv, d)
    # numpy's warnings off, as quadrature._panels runs the integrand
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        many = _log_excess_of(log_s0, np.full(3, lv), np.full(3, d))
    assert type(one) is float
    for got in [one, *many.tolist()]:
        assert abs(got - ref) <= 4 * scale
        if d >= 0.6:
            with mpmath.workdps(50):
                miss = abs(mpmath.mpf(got) - exact)
            assert miss <= 2 * math.ulp(max(abs(lv), 1.0))


@pytest.mark.parametrize("d", [0.0, -0.0, -5e-324, -1.0, -math.inf])
def test_log_excess_vanishes_at_or_below_the_level(d):
    assert _log_excess_of(1.0, 1.0 + d, d) == -math.inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        many = _log_excess_of(1.0, np.full(2, 1.0 + d), np.full(2, d))
    assert many.tolist() == [-math.inf] * 2


# d at and either side of 0.7, at or below the level, nan, and from the
# smallest subnormal to 1e4
_EXCESS_D = st.one_of(
    st.sampled_from([0.7, math.nextafter(0.7, 0.0), math.nextafter(0.7, 1.0),
                     0.0, -0.0, -5e-324, 5e-324, -math.inf, math.nan]),
    st.floats(-1e4, 1e4), st.floats(5e-324, 4.0))


@settings(max_examples=200, deadline=None)
@example(log_s0=-math.inf, ds=[0.5, 2.0, math.nan])
@example(log_s0=0.0, ds=[math.nextafter(0.7, 0.0), 0.7, math.nextafter(0.7, 1.0)])
@example(log_s0=700.0, ds=[math.nan, -1.0, 1e4, 0.0])
@example(log_s0=-700.0, ds=[2.0, 3.0])
@given(log_s0=st.one_of(st.just(-math.inf), st.floats(-700.0, 700.0)),
       ds=st.lists(_EXCESS_D, min_size=1, max_size=40))
def test_log_excess_array_form_equals_reference_bit_for_bit(log_s0, ds):
    """The array excess equals integrand_reference.log_excess bit for bit,
    nan and -inf included: for s0 = 0 (log_s0 = -inf), d <= 0, nan and d
    up to 1e4.  The float form gives the same value at nan, -inf,
    -0, 0, the smallest subnormal and +inf."""
    d = np.array(ds)
    lv = log_s0 + d
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got = _log_excess_of(log_s0, lv, d)
        want = integrand_reference.log_excess(log_s0, lv, d)
    assert got.tobytes() == want.tobytes()
    for x in (math.nan, -math.inf, -0.0, 0.0, 5e-324, math.inf):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = integrand_reference.log_excess(
                log_s0, np.array([log_s0 + x]), np.array([x]))
        one = _log_excess_of(log_s0, log_s0 + x, x)
        assert type(one) is float
        assert math.isnan(one) if math.isnan(want[0]) else one == want[0]


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


def test_g_edge_table_only_below_a_first_segment_without_a_cluster(monkeypatch):
    """At (2, 3, 0), g = v = e**s and G's e-fold width is 1/4, so (t0, 14]
    spans 49 widths: more than _TOP_SPAN, and G's first segment starts from
    the top-end cluster, with no edge table.  H keeps its edge table.  log G
    is 40-digit mpmath of the closed form omega * ((e**R - s0)**4 -
    (e**t0 - s0)**4) / 4, with the double omega, t0 and s0."""
    ex, R = build_sharp_example(2.0, 3.0, 0.0), 14.0
    tables, seen = growth.log_quad_tables, []

    def spy(logf, specs, **kwargs):
        seen.append((specs[growth._G_EDGE], specs[growth._H_EDGE]))
        return tables(logf, specs, **kwargs)

    monkeypatch.setattr(growth, "log_quad_tables", spy)
    sample = log_ball_integral(ex.manifold, ex.profile, ex.q, ex.s0, R)
    log_energy_integral(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, R)
    assert (R - ex.t0) / 0.25 == pytest.approx(49.2, abs=0.1)
    tops, _ = growth._widths(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, [R], [])
    assert growth._top_width(tops, ex.t0, R) == 0.25
    assert seen[0][0] == (0.0, [])
    assert seen[1][1] != (0.0, [])
    expected = float("56.45156462261332614190485021493447470061")
    assert abs(math.expm1(sample.logG - expected)) <= sample.quad_error + 4 * math.ulp(expected)


# log G and log H of the suite at (3, 7, 0), at the radii whose segments
# start from a top-end cluster (G over (5.693, 9.386], H over each of
# (2.347, 4.693], ..., (18.77, 37.55]), from a separate 40-digit mpmath
# session: tanh-sinh on 64 equal pieces of (t0, R), which agreed to 3e-39
# with a 60-digit run.  The integrands are omega * g * w**q and
# omega * g * w**(q-p) * (v')**p with g = e**s, v = e**(2s), the double t0
# and s0, and w = e**(2s) - s0, as the code forms the excess away from t0.
TOP_END_ORACLES_3_7_0 = [
    ("G", 9.38629436111989, "139.9242414425812667192530675973531406493"),
    ("H", 4.693147180559945, "71.6007521222393381130221777059750849663"),
    ("H", 9.38629436111989, "142.0036833440571993739607249753248401235"),
    ("H", 18.77258872223978, "282.7980992405836917676357222541621436585"),
    ("H", 37.54517744447956, "564.3869300741804189767226064031432641563"),
]


def test_top_end_clusters_frozen_mpmath(monkeypatch):
    """The suite's G and H at (3, 7, 0), whose segments start from top-end
    clusters, are within their claimed errors of 40-digit mpmath."""
    integrals, seen = growth._integrals, {}

    def spy(manifold, profile, p, q, s0, g_radii, h_radii, j_pairs, rel_tol):
        G, H, J = integrals(manifold, profile, p, q, s0, g_radii, h_radii, j_pairs, rel_tol)
        seen.update({("G", R): g for R, g in zip(g_radii, G)})
        seen.update({("H", R): h for R, h in zip(h_radii, H)})
        return G, H, J

    monkeypatch.setattr(growth, "_integrals", spy)
    run_inequality_suite(build_sharp_example(3.0, 7.0, 0.0))
    for functional, R, expected in TOP_END_ORACLES_3_7_0:
        log_value, rel_error = seen[functional, R]
        assert abs(log_value - float(expected)) <= rel_error + 4 * math.ulp(log_value)


def _suite_integrals(monkeypatch, ex, run=run_inequality_suite):
    """The G, H and J that run(ex), by default the suite, asks _integrals
    for, as it returns them, by key ("G", R), ("H", R) and ("J", r, R):
    (log value, relative error)."""
    integrals, seen = growth._integrals, {}

    def spy(manifold, profile, p, q, s0, g_radii, h_radii, j_pairs, rel_tol):
        G, H, J = integrals(manifold, profile, p, q, s0, g_radii, h_radii, j_pairs, rel_tol)
        seen.update({("G", R): g for R, g in zip(g_radii, G)})
        seen.update({("H", R): h for R, h in zip(h_radii, H)})
        seen.update({("J", *pair): j for pair, j in zip(j_pairs, J)})
        return G, H, J

    monkeypatch.setattr(growth, "_integrals", spy)
    run(ex)
    return seen


# log G at the suite's 8 radii, log H at its 5 and log J over its 3
# intervals at (2, 3, 1), from a separate 40-digit mpmath session:
# tanh-sinh on 64 pieces of each interval, finer towards its bottom, which
# agreed to 5e-39 with a 60-digit run on 96 pieces.  The integrands are
# omega * g * w**q, omega * g * w**(q-p) * (v')**p and
# (omega * g * w**q)**(1/(1-p)) with g = v = e**sqrt(s) and
# w = e**sqrt(s) - s0, integrated from the double t0 with the double s0.
ORACLES_2_3_1 = [
    (("G", 3.8667473750380914), "3.937426948672289621403927331882793301931"),
    (("G", 5.833152057456767), "8.978990006157192619890094827903913376012"),
    (("G", 7.733494750076183), "11.59160744380956015075659377507165249406"),
    (("G", 10.514410921066633), "14.27782588729065529416093295121103684763"),
    (("G", 15.466989500152366), "17.73838624670969387460283292148341917955"),
    (("G", 19.399798864989716), "19.91714184469829972190595009033138482951"),
    (("G", 30.93397900030473), "24.9788646855103462558111082489818145836"),
    (("G", 61.86795800060946), "34.62914423614934237550898655151680007361"),
    (("H", 3.8667473750380914), "4.658142318496253827333049159689886800006"),
    (("H", 7.733494750076183), "9.347846271994517253496504843312391991463"),
    (("H", 15.466989500152366), "14.03370960293864740411652889764328344213"),
    (("H", 30.93397900030473), "20.30954048480451829835882278061908896334"),
    (("H", 61.86795800060946), "29.18905045556081724925009749290737887198"),
    (("J", 3.8667473750380914, 15.466989500152366),
     "-6.383568255843010877714921145519260778164"),
    (("J", 7.733494750076183, 30.93397900030473),
     "-11.58845074290612002707182759233230251952"),
    (("J", 15.466989500152366, 61.86795800060946),
     "-16.5652335200069763841569705282267202543"),
]


def test_suite_integrals_frozen_mpmath_2_3_1(monkeypatch):
    """Every G, H and J of the suite at (2, 3, 1) is within its claimed
    relative error plus 2 ulps of its log of 40-digit mpmath."""
    seen = _suite_integrals(monkeypatch, EX_DECAY)
    assert sorted(seen) == sorted(key for key, _ in ORACLES_2_3_1)
    with mpmath.workdps(50):
        for key, expected in ORACLES_2_3_1:
            log_value, rel_error = seen[key]
            miss = abs(mpmath.mpf(log_value) - mpmath.mpf(expected))
            assert miss <= rel_error + 2 * math.ulp(log_value), key


@pytest.mark.parametrize("pq_mu", [(ex.p, ex.q, ex.mu) for ex in sharp_grid()
                                   if ex.mu in (0.0, ex.p)])
def test_suite_integrals_match_closed_form(pq_mu, monkeypatch):
    """On the 18 grid tuples with mu = 0 or mu = p, every G, H and J of the
    suite is within its claimed relative error plus 4 ulps of its log of
    the 80-digit incomplete beta closed form (tests/closed_form.py)."""
    ex = build_sharp_example(*pq_mu)
    _assert_closed_form(ex, _suite_integrals(monkeypatch, ex))


@pytest.mark.parametrize("pq_mu", [(ex.p, ex.q, ex.mu) for ex in sharp_grid()
                                   if ex.mu in (0.0, ex.p)])
def test_capacity_over_long_intervals_matches_closed_form(pq_mu, monkeypatch):
    """check_surface_capacity takes any R > r: over (r, 1e3 r) and
    (r, 1e5 r) from each of the suite's bottoms r, on the 18 grid tuples
    with mu = 0 or mu = p, J and H(r) are within their claimed relative
    errors plus 4 ulps of the closed form.  At mu = p J's integrand decays
    like a power, so the interval above its bottom cluster holds a share of
    J well above the rounding; one panel over it came out 2e-6 off at
    (3, 7, 3) over (2.41, 2.41e5) while claiming 5e-14."""
    ex = build_sharp_example(*pq_mu)
    bottoms = [r for r, _ in default_check_pairs(ex)["surface-capacity"]]
    _assert_closed_form(ex, _suite_integrals(monkeypatch, ex, lambda ex: [
        check_surface_capacity(ex, r, f * r) for r in bottoms for f in (1e3, 1e5)]))


def _assert_closed_form(ex, seen):
    """Each (log value, relative error) of seen, keyed as _suite_integrals
    keys them, is within its claim plus 4 ulps of the closed form at ex."""
    keys = {name: [key[1:] for key in seen if key[0] == name] for name in "GHJ"}
    exact = closed_form.log_integrals(
        ex, [R for R, in keys["G"]], [R for R, in keys["H"]], keys["J"])
    with mpmath.workdps(50):
        for name, want in zip("GHJ", exact):
            for key, x in zip(keys[name], want):
                log_value, rel_error = seen[(name, *key)]
                miss = abs(mpmath.mpf(log_value) - x)
                assert miss <= rel_error + 4 * math.ulp(log_value), (name, key)


@pytest.mark.parametrize("pq_mu", [(ex.p, ex.q, ex.mu) for ex in sharp_grid()
                                   if ex.mu in (0.0, ex.p)])
def test_rate_window_samples_match_closed_form(pq_mu):
    """On the 18 grid tuples with mu = 0 or mu = p, every growth sample of
    measure_rate's window is within its claimed relative error plus 4 ulps
    of its log of the 80-digit incomplete beta closed form
    (tests/closed_form.py)."""
    ex = build_sharp_example(*pq_mu)
    samples = growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, rate_window(ex))
    exact, _, _ = closed_form.log_integrals(ex, [s.R for s in samples], [], [])
    with mpmath.workdps(50):
        for s, x in zip(samples, exact):
            miss = abs(mpmath.mpf(s.logG) - x)
            assert miss <= s.quad_error + 4 * math.ulp(s.logG), s.R


@pytest.mark.parametrize("pq_mu", [(ex.p, ex.q, ex.mu) for ex in sharp_grid()
                                   if ex.mu in (0.0, ex.p)])
def test_suite_margins_match_closed_form(pq_mu):
    """On the 18 grid tuples with mu = 0 or mu = p, every annulus and
    capacity margin of the suite is within 8 ulps of max(|lhs|, |rhs|, 1) of
    the margin formed from the closed-form G, H and J (tests/closed_form.py)
    and the paper's two constants, restated here at 80 digits:
    k**(p p') (p - 1)**(p - 1) 4**p / (gamma min(1, gamma**(p - 1))) and
    (p - 1)**(p - 1) / min(1, gamma**p).  A wrong constant moves a margin by
    its log, which the suite's own tolerance of 1e-8 and more cannot see."""
    ex = build_sharp_example(*pq_mu)
    pairs = default_check_pairs(ex)
    annulus = [(R, R ** (ex.mu / ex.p)) for R in pairs["annulus-caccioppoli"]]
    capacity = pairs["surface-capacity"]
    G, H, J = closed_form.log_integrals(
        ex, [R + h for R, h in annulus],
        [R for R, _ in annulus] + [r for r, _ in capacity], capacity)
    with mpmath.workdps(closed_form.DPS):
        p, q, k = (mpmath.mpf(x) for x in (ex.p, ex.q, ex.params.k))
        gamma = q - p + 1
        log_annulus = mpmath.log(k ** (p * p / (p - 1)) * (p - 1) ** (p - 1) * 4 ** p
                                 / (gamma * min(1, gamma ** (p - 1))))
        log_capacity = mpmath.log((p - 1) ** (p - 1) / min(1, gamma ** p))
        want = [log_annulus + g - p * mpmath.log(h) - h_r
                for (_, h), g, h_r in zip(annulus, G, H)]
        want += [log_capacity + (1 - p) * j - h_r
                 for j, h_r in zip(J, H[len(annulus):])]
    got = [r for r in run_inequality_suite(ex)
           if r.name.startswith(("annulus-caccioppoli", "surface-capacity"))]
    assert len(got) == len(want) == 6
    for report, margin in zip(got, want):
        scale = max(abs(report.lhs), abs(report.rhs), 1.0)
        assert abs(report.margin - float(margin)) <= 8 * math.ulp(scale), report.name


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
    # g(s) = s**-0.5 keeps G integrable at t0 = 0 (s**-1 and below are
    # refused, see test_growth_layer_error_messages), bit for bit as before
    # and within its claim of 30-digit mpmath at s = u**2
    (log_g, err), = _g_from_zero(-0.5)[0]
    assert (log_g, err) == (70.23233758983116, 7.422939741407414e-15)
    assert abs(log_g - 70.2323375898311559366990771552) <= err + math.ulp(log_g)


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
    lower = logw + ex.q * math.log1p(-ex.s0 / math.exp(ex.profile.log_value(t1))) + body - math.log(a2)
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


def _nested_row_fit(samples, beta):
    """(rate, fit_residual) of the fit as a design matrix built from nested
    row lists, lstsq with rcond=None, and the worst misfit max |X coef - y|."""
    power = beta > 0.0
    X = np.array([([s.R ** beta] if power else []) + [math.log(s.R), 1.0] for s in samples])
    y = np.array([s.logG for s in samples])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return float(coef[0]) * (beta if power else 1.0), float(np.max(np.abs(X @ coef - y)))


@pytest.mark.parametrize("ex", sharp_grid(), ids=lambda ex: f"{ex.p}-{ex.q}-{ex.mu}")
def test_estimate_rate_matches_the_nested_row_fit_bit_for_bit(ex):
    """On each grid rate window, rate and fit_residual are those of the
    nested-row fit, bit for bit; a column-major design matrix moves a
    fit_residual by an ulp."""
    samples = growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, rate_window(ex))
    est = estimate_rate(samples, ex.beta)
    rate, resid = _nested_row_fit(samples, ex.beta)
    assert (est.rate.hex(), est.fit_residual.hex()) == (rate.hex(), resid.hex())


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
    tops, _ = growth._widths(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, [hi], [])
    assume(growth._top_width(tops, lo, hi) is not None)
    got = growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, [lo, hi])[1]
    ref = log_quad(np.vectorize(lambda s: log_sphere_integral(
        ex.manifold, ex.profile, ex.q, ex.s0, s), otypes=[float]),
        ex.t0, hi, rel_tol=1e-14)
    assert abs(math.expm1(got.logG - ref.log_value)) \
        <= got.quad_error + ref.rel_error + 4 * math.ulp(ref.log_value)


class _LinearNoSlope(RadialProfile):
    """v(t) = t, with no scaled_derivs."""

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
    tops, _ = growth._widths(manifold, profile, 2.0, 2.0, 0.0, [1e6], [])
    assert growth._top_width(tops, 1.0, 1e6) is None
    [sample] = growth_samples(manifold, profile, 2.0, 0.0, [1e6])
    assert abs(sample.logG - log_g) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.5, 4.0), log_gamma=st.floats(-0.5, 0.5),
       mu_frac=st.floats(0.0, 1.0), log_u=st.floats(-3.0, 0.0))
# draws where J lies further from the reference than the quadrature's own
# estimate claims, by the rounding of its log integrand
@example(p=3.46875, log_gamma=0.0, mu_frac=0.828125, log_u=-0.125)
@example(p=1.5, log_gamma=0.4084223531374873, mu_frac=0.0, log_u=-3.0)
def test_bottom_end_panels_match_default_panels(p, log_gamma, mu_frac, log_u):
    """J over (r, 4r), r in (t0, 10 t0 + 10], which gets bottom-end initial
    panels, agrees with a rel_tol=1e-14 log_quad on the default panels of
    the log of phi**(1/(1-p)), within the claimed errors and the rounding of
    the log value itself.  r - t0 is at least 1e-3 of that range: closer to
    t0 the rounding of v - s0, amplified by 1/(p - 1), keeps the reference
    from 1e-14, and then J from 1e-12 on either set of initial panels."""
    try:
        ex = build_sharp_example(p, p - 1.0 + 10.0 ** log_gamma, p * mu_frac)
    except DomainError:
        assume(False)
    r = ex.t0 + 10.0 ** log_u * (9.0 * ex.t0 + 10.0)
    _, bottoms = growth._widths(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, [], [r])
    assume(bottoms.get(r) is not None)
    try:
        ref = log_quad(np.vectorize(lambda s: -log_sphere_integral(
            ex.manifold, ex.profile, ex.q, ex.s0, s) / (ex.p - 1.0), otypes=[float]),
            r, 4.0 * r, rel_tol=1e-14)
    except QuadratureError:
        assume(False)
    _, _, [(log_j, j_err)] = growth._integrals(
        ex.manifold, ex.profile, ex.p, ex.q, ex.s0, [], [], [(r, 4.0 * r)], 1e-12)
    assert abs(math.expm1(log_j - ref.log_value)) \
        <= j_err + ref.rel_error + 4 * math.ulp(ref.log_value)


# log J over (r, 4r) at sharp examples (p, q, mu) with r = t0 + u * (9 t0 +
# 10), from a separate 45-digit mpmath session: the closed form of
# phi**(1/(1-p)) with the double omega, s0 and coefficients, on pieces that
# double in width from r, which agreed to 1e-45 with a 60-digit run
J_ROUNDING_CASES = [
    ((3.46875, 3.46875, 2.87255859375), 10.0 ** -0.125,
     "-0.2303910132871626169112720694572196151645"),
    ((1.5, 0.5 + 10.0 ** 0.4084223531374873, 0.0), 1e-3,
     "5.50092895671300521832778128804961298504"),
    ((1.5, 0.5 + 10.0 ** 0.41163792288111134, 1.5), 10.0 ** -2.9375,
     "16.7689671595562159648740660893274787324"),
]


@pytest.mark.parametrize("pq_mu, u, expected", J_ROUNDING_CASES)
def test_capacity_integral_claims_its_rounding(pq_mu, u, expected):
    """J's claimed error covers its distance from mpmath where that
    distance comes from the rounding of its log integrand -log phi / (p - 1),
    which its quadrature estimate alone does not see: the terms of log phi
    reach 150 in the first case, and near t0 the excess v - s0 forms from
    log v - log s0 with cancellation."""
    ex = build_sharp_example(*pq_mu)
    r = ex.t0 + u * (9.0 * ex.t0 + 10.0)
    _, _, [(log_j, j_err)] = growth._integrals(
        ex.manifold, ex.profile, ex.p, ex.q, ex.s0, [], [], [(r, 4.0 * r)], 1e-12)
    assert abs(math.expm1(log_j - float(expected))) <= j_err


@pytest.mark.parametrize("warp, profile, log_j", [
    # a warp that shrinks as fast as v**2 grows: phi = 2 pi, J = 3 / (2 pi)
    (PowerLaw(-2.0), PowerLaw(1.0), math.log(3.0 / (2.0 * math.pi))),
    # a profile that does not give its slope: phi = 2 pi s**3,
    # J = (1 - 4**-2) / (4 pi)
    (PowerLaw(1.0), _LinearNoSlope(), math.log((1.0 - 1.0 / 16.0) / (4.0 * math.pi))),
])
def test_bottom_end_panels_fall_back_without_a_known_positive_slope(warp, profile, log_j):
    manifold = ModelManifold(warp)
    _, bottoms = growth._widths(manifold, profile, 2.0, 2.0, 0.0, [], [1.0])
    assert bottoms.get(1.0) is None
    _, _, [(got, _)] = growth._integrals(manifold, profile, 2.0, 2.0, 0.0, [], [],
                                         [(1.0, 4.0)], 1e-12)
    assert abs(got - log_j) <= 1e-12


@pytest.mark.parametrize("run", [run_inequality_suite, measure_rate])
def test_widths_come_from_one_scaled_derivs_call_per_model_object(monkeypatch, run):
    """A suite call and a rate fit on each grid example read every e-fold
    width of their panel clusters from one scaled_derivs call on the
    profile and one log_slopes call on the warp, and make no log_value call
    on one radius."""
    for ex in sharp_grid():
        calls = []
        for name, obj in (("profile", ex.profile), ("warp", ex.manifold.warp)):
            for method in ("scaled_derivs", "log_slopes"):
                def grid_call(radii, label=f"{name} {method}", call=getattr(obj, method)):
                    calls.append(label)
                    return call(radii)

                monkeypatch.setattr(obj, method, grid_call)

            def values(t, name=name, method=obj.log_value):
                if type(t) is float:
                    calls.append(f"{name} log_value({t})")
                return method(t)

            monkeypatch.setattr(obj, "log_value", values)
        run(ex)
        assert sorted(calls) == ["profile scaled_derivs", "warp log_slopes"]


def _mp_log_and_slope(profile, t):
    """log v and d log v / dt at t from the closed form, at the working
    precision."""
    c = mpmath.mpf(profile.c)
    if isinstance(profile, PowerLaw):
        return c * mpmath.log(t), c / t
    if isinstance(profile, ExpPower):
        b = mpmath.mpf(profile.beta)
        return c * t ** b, c * b * t ** (b - 1)
    raise TypeError(profile)


@pytest.mark.parametrize("ex", sharp_grid(), ids=lambda ex: f"{ex.p}-{ex.q}-{ex.mu}")
def test_widths_match_mpmath_slopes_at_the_suite_radii(monkeypatch, ex):
    """The widths the suite places its clusters with, at every G and H
    radius above t0 and every J bottom, are 1 / (d log(g v**q) / ds) and
    (p - 1) / (d log phi / ds), phi = omega g (v - s0)**q, within 1e-13
    of 40-digit mpmath of the closed forms with the double parameters."""
    widths, seen = growth._widths, []

    def spy(*args):
        seen.append((args[-2], args[-1], widths(*args)))
        return seen[-1][-1]

    monkeypatch.setattr(growth, "_widths", spy)
    run_inequality_suite(ex)
    [(tops, bottoms, (top_w, bottom_w))] = seen
    assert len(tops) >= 5 and len(bottoms) == 3
    with mpmath.workdps(40):
        q, log_s0 = mpmath.mpf(ex.q), mpmath.log(ex.s0)
        for R in tops:
            t = mpmath.mpf(R)
            _, e_g = _mp_log_and_slope(ex.manifold.warp, t)
            _, e_v = _mp_log_and_slope(ex.profile, t)
            want = 1 / (e_g + q * e_v)
            assert abs(top_w[R] - want) <= 1e-13 * want
        for r in bottoms:
            t = mpmath.mpf(r)
            _, e_g = _mp_log_and_slope(ex.manifold.warp, t)
            log_v, e_v = _mp_log_and_slope(ex.profile, t)
            # v / (v - s0)
            ratio = -1 / mpmath.expm1(log_s0 - log_v)
            want = (ex.p - 1) / (e_g + q * e_v * ratio)
            assert abs(bottom_w[r] - want) <= 1e-13 * want


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


@pytest.mark.parametrize("pq_mu, radii, message", [
    # log G(1e300) is about 4e150, far past 2**53: no panel of the first
    # segment resolves rel_tol, which fails at the floor
    ((2.0, 3.0, 1.0), [1e300, 1e305, 1e308],
     r"below the double-precision floor on \[2\.8667473750380914, 1e\+300\]"),
    # finite nodes whose log(g * (v - s0)**3), about 4 s, overflows
    ((2.0, 3.0, 0.0), [10.0, 1e100, 1e308], r"integrand log-value at 9\.957\d*e\+307 is inf"),
    ((2.0, 3.0, 0.0), [10.0, 8e307], r"integrand log-value at 7\.96\d*e\+307 is inf"),
])
def test_radii_near_the_largest_double_named(pq_mu, radii, message):
    # RuntimeWarnings are errors here, so none may be raised on the way
    ex = build_sharp_example(*pq_mu)
    error = QuadratureError if "floor" in message else DomainError
    with pytest.raises(error, match=message) as info:
        growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, radii)
    assert type(info.value) is error


def test_top_end_cluster_has_no_zero_width_panels(monkeypatch):
    """At (2, 3, 0), w = 1/4, and ten cluster ends R - w * f round onto
    R = 1e17: each gave a panel [1e17, 1e17] of 15 evals and no mass, 38
    panels and 570 evals in all.  Both clusters are complete: 12 panels
    over (t0, 1e15] and 2 over [1e15, 1e17], the one end left, R - 48 w,
    rounding to 1e17 - 16."""
    work = _count_work(monkeypatch)
    ex = build_sharp_example(2.0, 3.0, 0.0)
    samples = growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, [1e15, 1e17])
    assert [s.logG for s in samples] == [4000000000000000.5, 4e17]
    assert (work["panels"], work["evals"]) == (14, 210)


def _initial_ends(monkeypatch):
    """The initial panel ends of each segment that growth hands its
    integrator, as (table, ends), from each table's hook."""
    seen, tables = [], growth.log_quad_tables

    def spy(logf, specs, **kwargs):
        for t, (lo, radii, *hook) in enumerate(specs):
            ends = hook[0] if hook else quadrature._initial_breakpoints
            for R in radii:
                if R > lo:
                    seen.append((t, ends(lo, R)))
                    lo = R
        return tables(logf, specs, **kwargs)

    monkeypatch.setattr(growth, "log_quad_tables", spy)
    return seen


def test_one_panel_past_a_complete_cluster(monkeypatch):
    """At (2, 3, 0) every segment of the rate window spans more than 250
    widths of G: each starts from lo, its 11 cluster ends and R, 12 panels,
    the first over [lo, R - 48 w], about e**-48 of the mass.  J gets no
    such panel: over the suite's (5.39, 21.5], 66 widths at r, it starts
    from r, its 11 ends and the eight default panels over [r + 48 w, R],
    as over (2.69, 10.8], 46 widths, past its partial cluster.  A segment
    of G spanning 30 widths keeps the eight default panels below its
    partial cluster."""
    ex = build_sharp_example(2.0, 3.0, 0.0)
    seen = _initial_ends(monkeypatch)
    radii = rate_window(ex)
    growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, radii)
    tops, _ = growth._widths(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, radii, [])
    assert [t for t, _ in seen] == [growth._G] * len(radii)
    for lo, R, (_, ends) in zip([ex.t0, *radii], radii, seen):
        w = tops[R]
        assert (R - lo) / w > 250.0
        assert ends == [lo, *(R - f * w for f in reversed(growth._CLUSTER)), R]
        assert len(ends) == 13

    seen.clear()
    (r_partial, R_partial), (r, R) = default_check_pairs(ex)["surface-capacity"][:2]
    growth._integrals(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, [], [],
                      [(r, R), (r_partial, R_partial)], 1e-12)
    _, bottoms = growth._widths(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, [],
                                [r, r_partial])
    w, w_partial = bottoms[r], bottoms[r_partial]
    assert 48.0 < (R - r) / w < 96.0 and 32.0 < (R_partial - r_partial) / w_partial < 48.0
    assert seen == [
        (growth._J, [r, *(r + f * w for f in growth._CLUSTER),
                     *quadrature._initial_breakpoints(r + 48.0 * w, R)[1:]]),
        (growth._J + 1, [r_partial, *(r_partial + f * w_partial for f in growth._CLUSTER[:-1]),
                         *quadrature._initial_breakpoints(r_partial + 32.0 * w_partial,
                                                          R_partial)[1:]])]

    seen.clear()
    R = 100.0
    w = growth._widths(ex.manifold, ex.profile, ex.p, ex.q, ex.s0, [R], [])[0][R]
    lo = R - 30.0 * w
    growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, [lo, R])
    assert seen[1] == (growth._G, [
        *quadrature._initial_breakpoints(lo, R - 22.0 * w),
        *(R - f * w for f in (16.0, 11.0, 8.0, 6.0, 4.0, 3.0, 2.0, 1.0)), R])


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


# the suite's reports at (2, 3, 1) as frozen before the suite named them
# directly: name, lhs, rhs, margin and tolerance; a surface-capacity
# tolerance (None) carries J's claimed error, which depends on its panels.
# Re-frozen when the excess log(v - s0) took one formula: H at R = 3.867
# moved by an ulp, to 2.1e-16 of ORACLES_2_3_1 from 1.1e-15, and with it
# the first annulus rhs and the first surface-capacity lhs; every other
# change is in the last bits of a claimed error
SUITE_2_3_1 = [
    ("growth-lower-bound(R1=3.867;R=15.47)", 18.66361984425921, 11.803045678346994,
     6.860574165912215, 1.0000016411292624e-08),
    ("growth-lower-bound(R1=7.733;R=30.93)", 25.749190631202502, 22.715272127771357,
     3.0339185034311456, 1.0000006997325547e-08),
    ("growth-lower-bound(R1=3.867;R=61.87)", 35.35852650843954, 27.5342831376964,
     7.82424337074314, 1.0000012247152912e-08),
    ("annulus-caccioppoli(R=3.867)", 11.05843154783703, 6.010556000577307,
     5.047875547259722, 1.0000003299845793e-08),
    ("annulus-caccioppoli(R=7.733)", 16.35726742897049, 11.393407134635515,
     4.963860294334976, 1.000000600455209e-08),
    ("annulus-caccioppoli(R=15.47)", 21.99658338637813, 16.77241764613959,
     5.22416574023854, 1.0000018359492995e-08),
    ("surface-capacity(r=3.867;R=15.47)", 4.658142318496254, 6.383568255843011,
     1.725425937346757, None),
    ("surface-capacity(r=7.733;R=30.93)", 9.347846271994516, 11.588450742906119,
     2.2406044709116024, None),
    ("surface-capacity(r=15.47;R=61.87)", 14.033709602938647, 16.565233520006977,
     2.5315239170683306, None),
]


def test_inequality_suite_frozen_reports():
    """Each suite report is built with its final name; names and values are
    bit for bit those frozen at (2, 3, 1)."""
    reports = run_inequality_suite(build_sharp_example(2.0, 3.0, 1.0))
    assert [(r.name, r.lhs, r.rhs, r.margin) for r in reports] \
        == [row[:4] for row in SUITE_2_3_1]
    for rep, (*_, tol) in zip(reports, SUITE_2_3_1):
        assert rep.passed
        assert rep.tolerance == tol or (tol is None and 1e-8 < rep.tolerance < 1.001e-8)


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
    # every G and H segment spanning more than _TOP_SPAN widths, and every
    # J, starts from its cluster: more first-round panels, and no example
    # needs a second round; the 16 G and H segments with a complete cluster
    # take one panel below it, not eight
    assert work == {"integrals": 459, "panels": 4587, "evals": 68805}


def test_rate_sweep_exact_work(monkeypatch):
    work = _count_work(monkeypatch)
    for ex in sharp_grid():
        measure_rate(ex)
    # no G edge in the 18 power-regime examples: 18 integrals fewer; the
    # 11-end cluster costs more first-round panels and saves later rounds;
    # the 126 segments with a complete cluster take one panel below it, not
    # eight
    assert work == {"integrals": 198, "panels": 2094, "evals": 31500}


def test_capacity_tables_close_in_their_first_round(monkeypatch):
    """Every J of a grid suite call starts from the bottom-end cluster and
    meets rel_tol there: no panel is halved, so each of its evals belongs
    to a panel it ends with."""
    closed = []
    tables = growth.log_quad_tables

    def checked_tables(logf, specs, **kwargs):
        results = tables(logf, specs, **kwargs)
        closed.extend(r.evals == 15 * r.panels for (r,) in results[growth._J:])
        return results

    monkeypatch.setattr(growth, "log_quad_tables", checked_tables)
    for ex in sharp_grid():
        run_inequality_suite(ex)
    assert len(closed) == 81 and all(closed)


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


def test_integrand_matches_reference_bit_for_bit(monkeypatch):
    """Every node of every integrand batch of a suite call and of a rate
    fit, on every grid example, has the value of integrand_reference's
    table-by-table formulas, bit for bit.  The batches include nodes of
    G's and H's edge tables, of G and H past them, and of J."""
    tables = growth.log_quad_tables
    batches = []

    def recorded(logf, specs, **kwargs):
        def spy(x, starts):
            out = logf(x, starts)
            batches.append((x.copy(), list(starts), out.copy()))
            return out
        return tables(spy, specs, **kwargs)

    monkeypatch.setattr(growth, "log_quad_tables", recorded)
    seen = set()
    for ex in sharp_grid():
        for run, p in [(run_inequality_suite, ex.p), (measure_rate, None)]:
            batches.clear()
            run(ex)
            assert batches
            for x, starts, out in batches:
                ref = integrand_reference.integrand(ex.manifold, ex.profile, p, ex.q,
                                                    ex.s0, x, starts)
                assert out.tobytes() == ref.tobytes()
                seen.update(min(t, growth._J) for t in range(len(starts) - 1)
                            if starts[t] < starts[t + 1])
    assert seen == {growth._G_EDGE, growth._G, growth._H_EDGE, growth._H, growth._J}


def test_sweep_integrand_batches(monkeypatch):
    """One refinement per example: every G, edge, H and J integral of a
    suite call shares each round's integrand call, the support edges,
    integrated in tau, need no bisection toward t0, and a rate window's
    segments, like J's, start with their ends clustered where their mass
    lies."""
    per_example = _batches_per_example(monkeypatch, run_inequality_suite)
    # with top-end clusters for H and for G segments of 24 to 96 widths,
    # every example takes one round, the mu = 0 ones with segments of up
    # to 282 widths included: 27 batches, not 41
    assert sum(per_example) == 27
    assert max(per_example) <= 1
    per_example = _batches_per_example(monkeypatch, measure_rate)
    # with the finer shared cluster 22 examples take one round, not 8
    assert sum(per_example) == 33
    assert all(n <= 2 for ex, n in zip(sharp_grid(), per_example)
               if not ex.is_borderline)


def test_top_end_panels_never_cost_a_batch(monkeypatch):
    """With no segment given top-end panels, and so G's edge table wherever
    there is an edge, each grid example needs at least as many batches:
    178 rate batches per sweep, 9 to 11 per power-regime example, and 41
    suite batches."""
    for run, total in [(measure_rate, 178), (run_inequality_suite, 41)]:
        clustered = _batches_per_example(monkeypatch, run)
        with monkeypatch.context() as patched:
            patched.setattr(growth, "_top_width", lambda *args: None)
            default = _batches_per_example(patched, run)
        assert sum(default) == total
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


def _sweep_tuples(n):
    """The first n (p, q, mu) of the domain sweep: random.Random(1),
    p = 1 + 10**U(-2, 1), gamma = q - p + 1 = 10**U(-3, 1.5), and mu/p
    drawn from {0, 1, U, U, U}."""
    rng = random.Random(1)
    out = []
    for _ in range(n):
        p = 1.0 + 10.0 ** rng.uniform(-2.0, 1.0)
        q = p - 1.0 + 10.0 ** rng.uniform(-3.0, 1.5)
        frac = rng.choice([0.0, 1.0, None, None, None])
        out.append((p, q, p * (rng.uniform(0.0, 1.0) if frac is None else frac)))
    return out


# t0 = 2**(1/c) with c = 5.2e-4 passes the largest double
_T0_PAST_DOUBLE = (1.0123715803923072, 23.94066143126726, 1.0123715803923072)


def test_domain_sweep_raises_only_domain_and_quadrature_errors():
    """Across the first 40 tuples of the domain sweep, and a tuple whose
    support radius passes the largest double, building the example, the
    suite and the rate fit each return or raise DomainError or
    QuadratureError, never another exception."""
    outcomes = []
    for pqmu in _sweep_tuples(40) + [_T0_PAST_DOUBLE]:
        try:
            ex = build_sharp_example(*pqmu)
        except (DomainError, QuadratureError) as exc:
            outcomes.append(type(exc))
            continue
        for run in (run_inequality_suite, measure_rate):
            try:
                run(ex)
                outcomes.append(None)
            except (DomainError, QuadratureError) as exc:
                outcomes.append(type(exc))
    assert outcomes[-1] is DomainError
    assert outcomes.count(None) > len(outcomes) // 2
    with pytest.raises(DomainError, match=r"level radius t = exp\(1340\.63\) of the level s = 2 "
                       r"exceeds the largest double"):
        build_sharp_example(*_T0_PAST_DOUBLE)


def test_public_checks_raise_in_the_suite_order():
    """A public check, like the suite, checks base_tol first and integrates
    before it forms the comparison constants: H's edge fails before eps."""
    ex = build_sharp_example(2.0, 1.01, 0.0)  # gamma = 0.01
    R1, R = default_check_pairs(ex)["growth-lower-bound"][0]
    with pytest.raises(QuadratureError, match=r"needed more than 4096 panels on \[0\.0, 1\.0\]"):
        check_growth_lower_bound(ex, R1, R, eps=1e9)
    with pytest.raises(DomainError, match="base_tol must be nonnegative"):
        check_caccioppoli(ex, ex.t0, base_tol=-1.0)


def test_integral_failure_raised_before_bad_eps():
    """The suite integrates G and H before it forms the comparison constants."""
    ex = build_sharp_example(2.0, 1.01, 0.0)  # gamma = 0.01: the edge runs out of panels
    with pytest.raises(QuadratureError, match=r"panels on \[0\.0, "):
        run_inequality_suite(ex, eps=1e9)
    with pytest.raises(DomainError, match="eps must lie in"):
        run_inequality_suite(EX_SINGULAR, eps=1e9)


_M = ModelManifold(PowerLaw(1.0))


def _g_from_zero(c):
    """G(9.67) on the warp s**c at s0 = 0, t0 = 0: s**c * v**q near 0."""
    return growth._integrals(ModelManifold(PowerLaw(c)), ExpPower(2.93, 0.94), 3.84,
                             2.89, 0.0, [9.67], [], [], 1e-12)


_FLOOR = max(EX_DECAY.t0, EX_DECAY.potential.r_min_positive)
_T0 = EX_DECAY.t0


@pytest.mark.parametrize("call, message", [
    (lambda: growth_samples(_M, PowerLaw(1.0), 0.0, 0.0, [2.0]), "q must be finite and positive, got 0.0"),
    (lambda: growth_samples(_M, PowerLaw(1.0), 2.0, 0.0, []), "radius grid is empty"),
    (lambda: growth_samples(_M, PowerLaw(1.0), 2.0, 0.0, [2.0, 2.0]),
     "radii must be strictly increasing"),
    (lambda: log_energy_integral(_M, PowerLaw(1.0), 1.0, 2.0, 0.0, 2.0), "p must exceed 1, got 1.0"),
    (lambda: log_energy_integral(_M, PowerLaw(1.0), 3.0, 2.0, 0.0, 2.0),
     "q must exceed p - 1 = 2.0, got 2.0"),
    (lambda: check_growth_lower_bound(EX_DECAY, _FLOOR, 4.0 * _FLOOR),
     f"R1 must exceed max(t0, positivity radius) = {_FLOOR}, got {_FLOOR}"),
    (lambda: check_growth_lower_bound(EX_DECAY, 10.0, 10.0), "need R > R1, got R=10.0, R1=10.0"),
    (lambda: check_caccioppoli(EX_DECAY, _T0), f"R must exceed t0={_T0}, got {_T0}"),
    (lambda: check_caccioppoli(EX_DECAY, 10.0, h=0.0), "h must be positive, got 0.0"),
    (lambda: check_surface_capacity(EX_DECAY, _T0, 10.0),
     f"need t0 < r < R, got t0={_T0}, r={_T0}, R=10.0"),
    (lambda: check_surface_capacity(EX_DECAY, 10.0, 10.0),
     f"need t0 < r < R, got t0={_T0}, r=10.0, R=10.0"),
    (lambda: rate_window(EX_DECAY, num=3), "need at least 4 samples, got num=3"),
    (lambda: rate_window(EX_DECAY, num=10 ** 6 + 1),
     "a grid holds at most 10**6 radii, got num=1000001"),
    # q > p - 1, but gamma = q - p + 1 rounds to 0.0
    (lambda: log_energy_integral(_M, PowerLaw(1.0), 1.0000000000000002, 2.2204460492503214e-16, 0.0, 2.0),
     "gamma = q - p + 1 must be positive in doubles, got 0.0 at p=1.0000000000000002, "
     "q=2.2204460492503215e-16"),
    # ceil(2 * alpha) of the support-edge exponent overflowed
    (lambda: log_energy_integral(EX_DECAY.manifold, EX_DECAY.profile, 2.0, 1e308, EX_DECAY.s0, 5.0),
     "the support-edge exponent 2(q + 1) is not finite at q=1e+308"),
    (lambda: growth_samples(EX_DECAY.manifold, EX_DECAY.profile, math.inf, EX_DECAY.s0, [5.0]),
     "q must be finite and positive, got inf"),
    (lambda: log_energy_integral(EX_DECAY.manifold, EX_DECAY.profile, 2.0, math.inf, EX_DECAY.s0, 5.0),
     "q must be finite, got inf"),
    # the gamma check read "q - p + 1 must be positive, got -inf"
    (lambda: log_energy_integral(_M, PowerLaw(1.0), math.inf, 2.0, 0.0, 2.0), "p must be finite, got inf"),
    (lambda: run_inequality_suite(EX_DECAY, base_tol=math.inf), "base_tol must be finite, got inf"),
    # G of g(s) = s**c at t0 = 0 diverges for c <= -1; each came back finite
    *[(lambda c=c: _g_from_zero(c), f"G diverges at t0 = 0: its integrand behaves like "
       f"s**{c} there, with exponent <= -1") for c in (-1.0, -1.5, -3.0, -5.885)],
], ids=["samples-q", "samples-empty", "samples-not-increasing", "energy-p", "energy-gamma",
        "growth-R1-floor", "growth-R-R1", "caccioppoli-R", "caccioppoli-h", "capacity-r",
        "capacity-R", "rate-window-num", "rate-window-num-ceiling", "energy-gamma-rounds-to-0",
        "energy-edge-exponent", "samples-q-inf", "energy-q-inf", "energy-p-inf", "suite-tol-inf",
        "g-diverges-1", "g-diverges-1.5", "g-diverges-3", "g-diverges-5.885"])
def test_growth_layer_error_messages(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
