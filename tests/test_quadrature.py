"""Tests for the log-domain adaptive quadrature.

Expected values are closed-form antiderivatives evaluated by hand, so the
quadrature is always compared against independent arithmetic.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import (
    DomainError,
    LogQuadResult,
    QuadratureError,
    log_diff,
    log_quad,
    log_sum,
)
from growthlab.quadrature import _NODES, _initial_breakpoints, log_quad_cumulative


def test_polynomial_with_zero_at_endpoint():
    # integral of x^2 over [0, 1] is 1/3; the integrand log is -inf at 0
    res = log_quad(lambda x: 2.0 * math.log(x) if x > 0.0 else -math.inf, 0.0, 1.0)
    assert res.log_value == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)
    assert res.rel_error <= 1e-12
    assert isinstance(res, LogQuadResult)


def test_gaussian_mass():
    res = log_quad(lambda t: -t * t, -10.0, 10.0)
    assert res.log_value == pytest.approx(0.5 * math.log(math.pi), abs=1e-11)


def test_huge_exponential_no_overflow():
    """Integrand values near exp(10000) are handled entirely in logs."""
    kappa, s = 50.0, 200.0
    res = log_quad(lambda t: kappa * t, 0.0, s)
    expected = log_diff(kappa * s, 0.0) - math.log(kappa)
    assert res.log_value == pytest.approx(expected, abs=1e-10)
    assert res.log_value > 9000.0


def test_integrable_endpoint_singularity():
    # integral of t^(-1/2) over [0, 1] is 2
    res = log_quad(lambda t: -0.5 * math.log(t), 0.0, 1.0)
    assert res.log_value == pytest.approx(math.log(2.0), abs=5e-12)


def test_breakpoints_resolve_jump():
    logf = lambda t: 0.0 if t < 0.3 else math.log(2.0)
    res = log_quad(logf, 0.0, 1.0, breakpoints=[0.3])
    assert res.log_value == pytest.approx(math.log(1.7), abs=1e-13)
    assert res.panels <= 4


@pytest.mark.parametrize("lo, hi", [(1.0, 16.0), (3.0, 1e6), (1e-150, 1e150)])
def test_initial_breakpoints_match_loop_formula(lo, hi):
    ref = [lo * (hi / lo) ** (i / 8) for i in range(9)]
    got = _initial_breakpoints(lo, hi)
    assert got == pytest.approx(ref, rel=8 * sys.float_info.epsilon)
    assert (got[0], got[-1]) == (lo, hi)


def test_deterministic():
    logf = lambda t: math.sin(t) - t
    a = log_quad(logf, 0.0, 30.0)
    b = log_quad(logf, 0.0, 30.0)
    assert a == b


def test_zero_length_interval():
    assert log_quad(lambda t: 1.0, 1.0, 1.0).log_value == -math.inf


def test_identically_zero_integrand():
    res = log_quad(lambda t: -math.inf, 0.0, 2.0)
    assert res.log_value == -math.inf


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        log_quad(lambda t: 0.0, 1.0, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_integrand_rejected(bad):
    with pytest.raises(DomainError):
        log_quad(lambda t: bad, 0.0, 1.0)


def test_budget_exhaustion_reports_partial_result():
    """A needle the initial panels cannot see raises with diagnostics."""
    logf = lambda t: -(((t - 0.37) / 1e-8) ** 2)
    with pytest.raises(QuadratureError) as info:
        log_quad(logf, 0.0, 1.0, max_panels=8)
    err = info.value
    assert err.panels == 8
    assert math.isfinite(err.log_value)
    assert err.rel_error > 0.0


def test_needle_resolved_with_budget():
    # the same needle integrates to about 1e-8 sqrt(pi) once refined
    logf = lambda t: -(((t - 0.37) / 1e-8) ** 2)
    res = log_quad(logf, 0.0, 1.0)
    expected = math.log(1e-8) + 0.5 * math.log(math.pi)
    assert res.log_value == pytest.approx(expected, abs=1e-9)


def test_log_sum_identities():
    assert log_sum([]) == -math.inf
    assert log_sum([-math.inf, 0.0]) == 0.0
    assert log_sum([710.0, 710.0]) == pytest.approx(710.0 + math.log(2.0), rel=1e-15)
    assert log_sum([0.0, 0.0, 0.0, 0.0]) == pytest.approx(math.log(4.0), rel=1e-15)


def test_log_diff_identities():
    assert log_diff(5.0, -math.inf) == 5.0
    assert log_diff(3.0, 3.0) == -math.inf
    # symmetric: log |e^a - e^b|
    assert log_diff(0.0, 1.0) == pytest.approx(math.log(math.e - 1.0), rel=1e-14)
    assert log_diff(1.0, 0.0) == pytest.approx(math.log(math.e - 1.0), rel=1e-14)
    a, b = 10000.0, 9999.0
    assert log_diff(a, b) == pytest.approx(b + math.log(math.e - 1.0), rel=1e-12)


# ---------------------------------------------------------------------
# the QK15 panel rule and the evaluation counter
# ---------------------------------------------------------------------


@pytest.mark.parametrize("d", range(24))
def test_kronrod_rule_exact_for_polynomials(d):
    """K15 integrates x^d on [-1, 1] exactly up to degree 23."""
    got = math.fsum(math.exp(lwk) * x ** d for x, lwk, _ in _NODES)
    expected = 2.0 / (d + 1) if d % 2 == 0 else 0.0
    assert got == pytest.approx(expected, rel=1e-14, abs=1e-15)


def test_gauss_subset_matches_leggauss():
    """The nodes carrying a G7 weight are the 7-point Gauss-Legendre rule."""
    from numpy.polynomial.legendre import leggauss

    g7 = sorted((x, math.exp(lwg)) for x, _, lwg in _NODES if lwg is not None)
    nodes, weights = leggauss(7)
    assert len(g7) == 7
    for (x, w), xr, wr in zip(g7, nodes, weights):
        assert x == pytest.approx(xr, abs=1e-15)
        assert w == pytest.approx(wr, abs=1e-15)


def test_eval_count_without_refinement():
    # 8 initial panels of 15 nodes each already meet the tolerance
    res = log_quad(lambda x: 2.0 * math.log(x) if x > 0.0 else -math.inf, 0.0, 1.0)
    assert res.panels == 8
    assert res.evals == 120


def test_eval_count_with_refinement():
    # each bisection replaces one panel by two freshly evaluated ones
    calls = []

    def logf(t):
        calls.append(t)
        return -(((t - 0.37) / 1e-3) ** 2)

    res = log_quad(logf, 0.0, 1.0)
    assert res.panels > 8
    assert res.evals == 15 * (2 * res.panels - 8)
    assert res.evals == len(calls)


def test_budget_exhaustion_counts_evals():
    logf = lambda t: -(((t - 0.37) / 1e-8) ** 2)
    with pytest.raises(QuadratureError) as info:
        log_quad(logf, 0.0, 1.0, max_panels=8)
    assert info.value.evals == 120


@pytest.mark.parametrize("lo,hi", [(1.0, math.nextafter(1.0, 2.0)), (0.0, 5e-324), (0.0, 1e-323)])
def test_interval_a_few_ulps_wide(lo, hi):
    # integral of 1 is the width, even where half the width rounds to 0
    res = log_quad(lambda t: 0.0, lo, hi)
    assert res.log_value == pytest.approx(math.log(hi - lo), rel=1e-15)


# ---------------------------------------------------------------------
# cumulative integration up to several radii
# ---------------------------------------------------------------------


def _log_exp_integral(kappa, lo, R):
    """log of the integral of exp(kappa t) over [lo, R], R > lo."""
    # (1 - exp(-d)) / |kappa| = (R - lo) * (1 - exp(-d)) / d, d = |kappa| (R - lo)
    d = abs(kappa) * (R - lo)
    shape = -math.expm1(-d) / d if d > 0.0 else 1.0
    return max(kappa * R, kappa * lo) + math.log(R - lo) + math.log(shape)


def _log_power_integral(c, lo, R):
    """log of the integral of t^c over [lo, R], R > lo >= 0, c > -1."""
    if lo == 0.0:
        return (c + 1.0) * math.log(R) - math.log(c + 1.0)
    # 1 - (lo/R)^(c+1) = 1 - exp(-d) with d = (c+1) log(R/lo) > 1e-17
    d = (c + 1.0) * math.log1p((R - lo) / lo)
    return (c + 1.0) * math.log(R) + math.log(-math.expm1(-d)) - math.log(c + 1.0)


def _check_cumulative(logf, closed_form, lo, radii, rel_tol):
    results = log_quad_cumulative(logf, lo, radii, rel_tol=rel_tol)
    assert len(results) == len(radii)
    for R, res in zip(radii, results):
        if R <= lo:
            assert res.log_value == -math.inf
            assert res.rel_error == 0.0
        else:
            assert res.rel_error <= rel_tol
            assert abs(math.expm1(res.log_value - closed_form(R))) <= rel_tol
    assert [r.evals for r in results] == sorted(r.evals for r in results)


_gaps = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6)
# An interval narrower than about 1e-321 at 0 holds no double inside it, so
# every node of its panel lands on an endpoint, where t^c with c < 0 is +inf.
_gaps_off_pole = st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 20.0)),
                          min_size=1, max_size=6)
_rel_tols = st.sampled_from([1e-12, 1e-9, 1e-6])


def _radii(lo, below, gaps):
    radii = [lo - 1.0, lo][-below:] if below else []
    R = lo
    for g in gaps:
        R += g
        radii.append(R)
    return radii


@settings(max_examples=60, deadline=None)
@given(kappa=st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)), lo=st.floats(0.0, 10.0),
       below=st.integers(0, 2), gaps=_gaps, rel_tol=_rel_tols)
def test_cumulative_matches_exponential_closed_form(kappa, lo, below, gaps, rel_tol):
    _check_cumulative(lambda t: kappa * t, lambda R: _log_exp_integral(kappa, lo, R),
                      lo, _radii(lo, below, gaps), rel_tol)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(-0.5, 3.0), lo=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       below=st.integers(0, 2), gaps=_gaps_off_pole, rel_tol=_rel_tols)
def test_cumulative_matches_power_closed_form(c, lo, below, gaps, rel_tol):
    logf = lambda t: c * math.log(t) if t > 0.0 else (-math.inf if c > 0.0 else math.inf)
    _check_cumulative(logf, lambda R: _log_power_integral(c, lo, R),
                      lo, _radii(lo, below, gaps), rel_tol)


def test_cumulative_rejects_decreasing_radii():
    with pytest.raises(DomainError):
        log_quad_cumulative(lambda t: 0.0, 0.0, [2.0, 1.0])
    with pytest.raises(DomainError):
        log_quad_cumulative(lambda t: 0.0, 0.0, [1.0, float("nan")])
