"""Tests for the log-domain adaptive quadrature.

Expected values are closed-form antiderivatives evaluated by hand, so the
quadrature is always compared against independent arithmetic.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthlab import (
    DomainError,
    LogQuadResult,
    QuadratureError,
    log_quad,
    log_sum,
)
from growthlab import quadrature
from growthlab.growth import _CLUSTER
from growthlab.quadrature import _NODES, _initial_breakpoints, _panels, log_quad_tables
from logspace import log_combine, log_diff


def test_polynomial_with_zero_at_endpoint():
    # integral of x^2 over [0, 1] is 1/3; the integrand log is -inf at 0
    res = log_quad(np.vectorize(lambda x: 2.0 * math.log(x) if x > 0.0 else -math.inf, otypes=[float]), 0.0, 1.0)
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
    res = log_quad(np.vectorize(lambda t: -0.5 * math.log(t), otypes=[float]), 0.0, 1.0)
    assert res.log_value == pytest.approx(math.log(2.0), abs=5e-12)


@pytest.mark.parametrize("lo, hi", [(1.0, 16.0), (3.0, 1e6), (1e-150, 1e150)])
def test_initial_breakpoints_match_loop_formula(lo, hi):
    ref = [lo * (hi / lo) ** (i / 8) for i in range(9)]
    got = _initial_breakpoints(lo, hi)
    assert got == pytest.approx(ref, rel=8 * sys.float_info.epsilon)
    assert (got[0], got[-1]) == (lo, hi)


@pytest.mark.parametrize("lo, hi", [(7.294201044197906, 15.790297059846727), (1e308, 1.7e308)])
def test_even_breakpoints_end_at_hi(lo, hi):
    """lo + (hi - lo) missed hi by an ulp on the first segment, and
    (hi - lo) * i overflowed to inf on the second."""
    got = _initial_breakpoints(lo, hi)
    assert (got[0], got[-1], len(got)) == (lo, hi, 9)
    assert got == sorted(got) and all(map(math.isfinite, got))


@pytest.mark.parametrize("ends", [
    lambda lo, hi: [lo - 1.0, hi],
    lambda lo, hi: [lo, 0.7, 0.3, hi],
    lambda lo, hi: [lo],
    lambda lo, hi: [],
], ids=["below-lo", "decreasing", "no-hi", "empty"])
def test_tables_reject_panel_ends_that_do_not_cover_the_segment(ends):
    """A hook's ends were trusted: integrating -x over [-1, 1], -inf from 5
    panels, or numpy's zero-size error."""
    with pytest.raises(DomainError, match=r"panel ends .* do not run from 0\.0 to 1\.0 "
                       "in nondecreasing order"):
        log_quad_tables(lambda x, starts: -x, [(0.0, [1.0], ends)])


def test_deterministic():
    logf = np.vectorize(lambda t: math.sin(t) - t, otypes=[float])
    a = log_quad(logf, 0.0, 30.0)
    b = log_quad(logf, 0.0, 30.0)
    assert a == b


def test_zero_length_interval():
    assert log_quad(lambda t: 1.0, 1.0, 1.0).log_value == -math.inf


def test_identically_zero_integrand():
    res = log_quad(np.vectorize(lambda t: -math.inf, otypes=[float]), 0.0, 2.0)
    assert res.log_value == -math.inf


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        log_quad(lambda t: 0.0, 1.0, 0.0)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_non_finite_ends_rejected(lo, hi):
    with pytest.raises(DomainError, match=r"\[{}, {}\]: its ends must be finite".format(lo, hi)):
        log_quad(lambda t: 0.0 * t, lo, hi)


@pytest.mark.parametrize("lo, radii, bad", [
    (0.0, [1.0, math.inf], math.inf), (math.nan, [1.0], math.nan), (0.0, [-math.inf], -math.inf)])
def test_tables_reject_non_finite_radii(lo, radii, bad):
    with pytest.raises(DomainError, match=f"integration radius {bad} is not finite"):
        log_quad_tables(lambda x, starts: 0.0 * x, [(lo, radii)])


@pytest.mark.parametrize("rel_tol", [math.inf, math.nan, 0.0])
def test_rel_tol_must_be_finite_and_positive(rel_tol):
    message = f"rel_tol must be finite and positive, got {rel_tol}"
    with pytest.raises(DomainError, match=message):
        log_quad(lambda t: 0.0 * t, 0.0, 1.0, rel_tol=rel_tol)
    with pytest.raises(DomainError, match=message):
        log_quad_tables(lambda x, starts: 0.0 * x, [(0.0, [1.0])], rel_tol=rel_tol)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_integrand_rejected(bad):
    with pytest.raises(DomainError):
        log_quad(np.vectorize(lambda t: bad, otypes=[float]), 0.0, 1.0)


def test_budget_exhaustion_reports_partial_result(monkeypatch):
    """A needle the initial panels cannot see raises with diagnostics."""
    logf = lambda t: -(((t - 0.37) / 1e-8) ** 2)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(QuadratureError) as info:
        log_quad(logf, 0.0, 1.0)
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


@settings(max_examples=200, deadline=None)
@example(value=-math.inf, rel=0.5, panels=8)
@example(value=2.0 ** 53 + 2.0, rel=1e-13, panels=8)
@example(value=1e308, rel=0.0, panels=4096)
@given(value=st.one_of(st.just(-math.inf), st.floats(-1e300, 1e300),
                       st.floats(2.0 ** 53, sys.float_info.max)),
       rel=st.floats(0.0, 1.0), panels=st.integers(0, quadrature._MAX_PANELS))
def test_running_sum_of_one_part_is_that_part(value, rel, panels):
    """The sum of one part is its log value and relative error exactly, the
    identity growth._integrals relies on where G or H has no edge table;
    -inf, a zero integral, has zero error."""
    part = (value, rel if value > -math.inf else 0.0, panels, 15 * panels)
    assert quadrature._running_sum([part]) == [(-math.inf, 0.0, 0, 0), part]


_PART_LOG = st.one_of(st.just(-math.inf), st.floats(-40.0, 40.0),
                     st.floats(-1e300, 1e300),
                     st.floats(2.0 ** 53, sys.float_info.max))


@settings(max_examples=300, deadline=None)
@example(a=-math.inf, rel_a=0.5, b=-math.inf, rel_b=0.25, equal=False)
@example(a=-math.inf, rel_a=0.5, b=3.0, rel_b=1e-13, equal=False)
@example(a=3.0, rel_a=1e-13, b=-math.inf, rel_b=0.5, equal=False)
@example(a=3.0, rel_a=1e-13, b=0.0, rel_b=2e-13, equal=True)
@example(a=0.0, rel_a=1e-13, b=-30.0, rel_b=2e-13, equal=False)
@example(a=2.0 ** 53 + 2.0, rel_a=1e-13, b=2.0 ** 53, rel_b=1e-12, equal=False)
@example(a=2.0 ** 60, rel_a=1e-12, b=2.0 ** 60 + 2.0 ** 9, rel_b=0.0, equal=False)
@example(a=sys.float_info.max, rel_a=0.0, b=0.0, rel_b=1.0, equal=True)
@given(a=_PART_LOG, rel_a=st.floats(0.0, 1.0), b=_PART_LOG,
       rel_b=st.floats(0.0, 1.0), equal=st.booleans())
def test_running_sum_of_two_parts_matches_mpmath(a, rel_a, b, rel_b, equal):
    """The running sum over two results, as growth._integrals adds an edge
    piece to the rest of G or H, is within an ulp of max(|a|, |b|, |value|,
    1) of log(e^a + e^b), and its error within 2 ulps of the value-weighted
    mean (rel_a e^a + rel_b e^b)/(e^a + e^b), both from 50-digit mpmath,
    plus what the rounding of a - b moves that mean by: for -inf parts,
    equal parts (equal), and log values past 2**53."""
    b = a if equal else b
    parts = [LogQuadResult(a, rel_a, 0, 0), LogQuadResult(b, rel_b, 0, 0)]
    value, rel, _, _ = quadrature._running_sum(parts)[-1]
    want, want_rel = log_combine(parts)
    if want == -math.inf:
        assert (value, rel) == (-math.inf, 0.0)
        return
    scale = max(abs(x) for x in (a, b, value, 1.0) if x > -math.inf)
    assert abs(value - want) <= math.ulp(scale)
    # the sum weighs the smaller part by f = exp(-|a - b|), whose exponent
    # rounds by up to ulp(a - b)/2, and d(mean)/df = (rel_b - rel_a)/(1 + f)^2
    f = math.exp(-abs(a - b)) if min(a, b) > -math.inf else 0.0
    moved = abs(rel_a - rel_b) * f / (1.0 + f) ** 2 * math.ulp(a - b) / 2.0 if f else 0.0
    assert abs(rel - want_rel) <= 2.0 * math.ulp(want_rel) + moved


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
    res = log_quad(np.vectorize(lambda x: 2.0 * math.log(x) if x > 0.0 else -math.inf, otypes=[float]), 0.0, 1.0)
    assert res.panels == 8
    assert res.evals == 120


def test_eval_count_with_refinement():
    # each bisection replaces one panel by two freshly evaluated ones
    calls = []

    def logf(t):
        calls.append(t)
        return -(((t - 0.37) / 1e-3) ** 2)

    res = log_quad(np.vectorize(logf, otypes=[float]), 0.0, 1.0)
    assert res.panels > 8
    assert res.evals == 15 * (2 * res.panels - 8)
    assert res.evals == len(calls)


@pytest.mark.parametrize("kL", [200.0, 1e4])
@pytest.mark.parametrize("at_top", [False, True])
def test_end_cluster_resolves_an_exponential_in_one_round(kL, at_top, monkeypatch):
    """exp(-k x) over [0, L] with the shared cluster of panel ends at the
    bottom, and exp(k x) with it at the top, the default panels filling the
    rest, meet (1 - exp(-kL))/k and its mirror exp(kL) (1 - exp(-kL))/k
    within the claimed error, and no panel is halved."""
    k = 3.0
    L = kL / k
    batches = []

    def logf(x, starts):
        batches.append(x)
        return (k if at_top else -k) * x

    # each hook gives the segment's whole list of initial panel ends
    if at_top:
        table = (0.0, [L], lambda lo, hi: _initial_breakpoints(lo, hi - _CLUSTER[-1] / k)
                 + [hi - f / k for f in reversed(_CLUSTER[:-1])] + [hi])
    else:
        table = (0.0, [L], lambda lo, hi: [lo] + [lo + f / k for f in _CLUSTER[:-1]]
                 + _initial_breakpoints(lo + _CLUSTER[-1] / k, hi))
    [[res]] = log_quad_tables(logf, [table])
    expected = math.log(-math.expm1(-kL)) - math.log(k) + (kL if at_top else 0.0)
    assert abs(math.expm1(res.log_value - expected)) <= res.rel_error
    # one round of 11 cluster panels and the 8 default ones, which together
    # cover [0, L] with no panel of zero width
    [x] = batches
    assert res.panels == 19 and res.evals == 15 * res.panels == len(set(x.tolist()))
    assert 0.0 < x.min() < L / 8 and L - L / 8 < x.max() < L


def test_budget_exhaustion_counts_evals(monkeypatch):
    logf = lambda t: -(((t - 0.37) / 1e-8) ** 2)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(QuadratureError) as info:
        log_quad(logf, 0.0, 1.0)
    assert info.value.evals == 120


@pytest.mark.parametrize("lo,hi", [(1.0, math.nextafter(1.0, 2.0)), (0.0, 5e-324), (0.0, 1e-323)])
def test_interval_a_few_ulps_wide(lo, hi):
    # integral of 1 is the width, even where half the width rounds to 0
    res = log_quad(np.vectorize(lambda t: 0.0, otypes=[float]), lo, hi)
    assert res.log_value == pytest.approx(math.log(hi - lo), rel=1e-15)


# ---------------------------------------------------------------------
# cumulative integration up to several radii
# ---------------------------------------------------------------------


def _cumulative(logf, lo, radii, rel_tol=1e-12):
    """The integrals of exp(logf) from lo up to each radius, as one table."""
    return log_quad_tables(lambda x, starts: logf(x), [(lo, radii)], rel_tol=rel_tol)[0]


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
    results = _cumulative(logf, lo, radii, rel_tol=rel_tol)
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


def _log_power(c):
    return np.vectorize(lambda t: c * math.log(t) if t > 0.0 else (-math.inf if c > 0.0 else math.inf), otypes=[float])


@settings(max_examples=60, deadline=None)
@given(c=st.floats(-0.5, 3.0), lo=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       below=st.integers(0, 2), gaps=_gaps_off_pole, rel_tol=_rel_tols)
@example(c=-0.5, lo=0.0, below=0, gaps=[1e-300], rel_tol=1e-12)
def test_cumulative_matches_power_closed_form(c, lo, below, gaps, rel_tol):
    # a pole at 0 inside a very short first segment may need panels below the
    # double-precision floor: that failure is the only one allowed
    try:
        _check_cumulative(_log_power(c), lambda R: _log_power_integral(c, lo, R),
                          lo, _radii(lo, below, gaps), rel_tol)
    except QuadratureError as exc:
        assert "below the double-precision floor" in str(exc)


def test_bisection_stops_at_the_double_precision_floor():
    # t^-0.5 over [0, 1e-300] needs a first panel narrower than about 1e-320
    # for rel_tol=1e-12; the nodes of a panel that narrow round onto t = 0
    with pytest.raises(QuadratureError, match=r"panel \[0\.0, .*\] is below the double-precision "
                       r"floor on \[0\.0, 1e-300\] for rel_tol=1e-12") as info:
        _cumulative(_log_power(-0.5), 0.0, [1e-300], rel_tol=1e-12)
    assert info.value.panels < 4096
    # over [0, 1e-200] the panels it needs stay above the floor
    res = _cumulative(_log_power(-0.5), 0.0, [1e-200], rel_tol=1e-12)[0]
    assert abs(math.expm1(res.log_value - _log_power_integral(-0.5, 0.0, 1e-200))) <= 1e-12


def test_first_round_panel_below_the_floor():
    # over [0, 1e-322] the first initial panel is 2 subnormals wide, so its
    # nodes round onto t = 0, where t^-0.5 is +inf: the panel is below the
    # floor, as a bisected one would be, and the integrand is not at fault
    with pytest.raises(QuadratureError, match=r"^panel \[0\.0, 1e-323\] is below the "
                       r"double-precision floor on \[0\.0, 1e-322\] for rel_tol=1e-12; "
                       r"reached inf$") as info:
        log_quad(_log_power(-0.5), 0.0, 1e-322)
    assert (info.value.panels, info.value.evals) == (0, 0)


def test_cumulative_rejects_decreasing_radii():
    with pytest.raises(DomainError):
        _cumulative(lambda t: 0.0, 0.0, [2.0, 1.0])
    with pytest.raises(DomainError):
        _cumulative(lambda t: 0.0, 0.0, [1.0, float("nan")])


# ---------------------------------------------------------------------
# references: the QK15 rule one node at a time and the serial driver
# ---------------------------------------------------------------------

# Bound for the batched rule against the loop, fixed from float64 before the
# batched rule was written: numpy's exp and log are within an ulp or two of
# math's, and a pairwise sum of 15 terms is within a few ulps of fsum, so
# log K15 moves by a few units of 2**-52 relative to max(1, |log K15|).
_BOUND = 16 * 2.0 ** -52


def _close(new, ref):
    if math.isinf(ref):
        return new == ref
    return abs(new - ref) <= _BOUND * max(1.0, abs(ref))


def _log_fsum(logs):
    """log of the sum of exp(logs), the sum an exactly rounded math.fsum."""
    m = max(logs)
    if m == -math.inf:
        return m
    return m + math.log(math.fsum(math.exp(x - m) for x in logs))


def _panel_ref(vals, a, b):
    """(log K15, log |K15 - G7|) of the panel [a, b] from its 15 node
    log-values, each rule's sum an exactly rounded math.fsum."""
    log_half = math.log(b - a) - math.log(2.0) if b > a else -math.inf
    k15, g7 = (_log_fsum([v + lw for v, lw in zip(vals, lws) if lw is not None]) + log_half
               for lws in ([lwk for _, lwk, _ in _NODES], [lwg for _, _, lwg in _NODES]))
    return k15, log_diff(k15, g7)


def _panel_loop(logf, a, b):
    """_panel_ref of the panel [a, b], its integrand called one node at a time."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = []
    for x, _, _ in _NODES:
        v = logf(mid + half * x)
        if math.isnan(v) or v == math.inf:
            raise DomainError(f"integrand log-value at {mid + half * x} is {v}")
        vals.append(v)
    return _panel_ref(vals, a, b)


def _log_quad_serial(logf, lo, hi, rel_tol=1e-12, max_panels=4096):
    """Worst-first refinement, one bisection and one scan of every panel at a time."""
    pts = _initial_breakpoints(lo, hi)
    panels = [(pts[i], pts[i + 1], *_panel_loop(logf, pts[i], pts[i + 1]))
              for i in range(len(pts) - 1)]
    evaluated = len(panels)
    log_rel_tol = math.log(rel_tol)
    while True:
        total = log_sum(p[2] for p in panels)
        toterr = log_sum(p[3] for p in panels)
        if toterr <= total + log_rel_tol or toterr == -math.inf:
            rel = math.exp(toterr - total) if total > -math.inf else 0.0
            return LogQuadResult(log_value=total, rel_error=rel,
                                 panels=len(panels), evals=15 * evaluated)
        if len(panels) >= max_panels:
            rel = math.exp(toterr - total) if total > -math.inf else math.inf
            raise QuadratureError("budget", log_value=total, rel_error=rel,
                                  panels=len(panels), evals=15 * evaluated)
        worst = 0
        for i in range(1, len(panels)):
            if panels[i][3] > panels[worst][3]:
                worst = i
        a, b, _, _ = panels[worst]
        m = 0.5 * (a + b)
        panels[worst:worst + 1] = [(a, m, *_panel_loop(logf, a, m)),
                                   (m, b, *_panel_loop(logf, m, b))]
        evaluated += 2


_SCALAR_INTEGRANDS = [
    lambda t: -t * t,
    lambda t: 50.0 * t,
    lambda t: 2.0 * math.log(t) if t > 0.0 else -math.inf,
    lambda t: math.sin(t) - t,
    lambda t: -(((t - 0.37) / 1e-3) ** 2),
    lambda t: -math.inf,
]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(_SCALAR_INTEGRANDS) - 1),
       panels=st.lists(st.tuples(st.floats(-5.0, 5.0),
                                 st.one_of(st.just(0.0), st.floats(1e-300, 10.0))),
                       min_size=1, max_size=12))
def test_batched_panels_match_loop(which, panels):
    f = _SCALAR_INTEGRANDS[which]
    a = np.array([lo for lo, _ in panels])
    b = np.array([lo + w for lo, w in panels])
    k15, err = _panels(np.vectorize(f, otypes=[float]), a, b)
    for i in range(len(panels)):
        k_ref, e_ref = _panel_loop(f, a[i], b[i])
        assert _close(k15[i], k_ref)
        if k_ref == -math.inf:
            assert err[i] == e_ref
        else:
            # |K15 - G7| cancels, so its change is bounded relative to K15
            gap = abs(math.exp(err[i] - k_ref) - math.exp(e_ref - k_ref))
            assert gap <= 2 * _BOUND * max(1.0, abs(k_ref))


def test_panel_past_the_largest_double_is_named():
    """a + b overflows on the first panel: its nodes are not formed, no
    RuntimeWarning is given and logf is not called."""
    def logf(x):
        raise AssertionError("logf called")
    with pytest.raises(DomainError, match=r"^a node of the panel \[1e\+308, 1\.0875e\+308\] "
                       "passes the largest double$"):
        log_quad(logf, 1e308, 1.7e308)


def test_interval_wider_than_the_largest_double_is_named():
    """Its panels' ends were formed from hi - lo = inf, and the first named
    was [nan, inf]."""
    with pytest.raises(DomainError, match=r"^integration segment \[-1e\+308, 1\.7e\+308\] "
                       "is wider than the largest double$"):
        log_quad(lambda x: 0 * x, -1e308, 1.7e308)
    with pytest.raises(DomainError, match=r"segment \[-1e\+308, 1e\+308\] is wider"):
        log_quad_tables(lambda x, starts: 0 * x, [(0.0, [1.0]), (-1e308, [1e308])])


def test_tolerance_test_holds_past_two_to_the_58():
    """With total >= 2**58, total + log(1e-12) rounds back to total, so a
    test toterr <= total + log(rel_tol) passed every segment: exp(1e18 x)
    over [0, 1], whose log integral is 1e18 - log(1e18), came back as
    9.9947e17 with rel_error 1.  No panel resolves it: the floor is met."""
    with pytest.raises(QuadratureError, match=r"below the double-precision floor on "
                       r"\[0\.0, 1\.0\] for rel_tol=1e-12; reached 1\.000e\+00"):
        log_quad(lambda x: 1e18 * x, 0.0, 1.0)


def test_overflowing_log_values_are_named_without_a_warning():
    with pytest.raises(DomainError, match="integrand log-value at .* is inf"):
        log_quad(lambda x: 1e308 * x, 1.0, 2.0)


def test_log_of_zero_in_logf_gives_no_warning():
    """logf runs with numpy's floating-point warnings off, so log(0) is a
    quiet -inf; a nan it returns still raises DomainError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = log_quad(lambda x: np.log(np.maximum(x, 0.0)), -1.0, 1.0)
        assert res.log_value == math.log(0.5)
        with pytest.raises(DomainError, match="integrand log-value at .* is nan"):
            log_quad(lambda x: np.log(-x), 0.0, 1.0)


def test_batched_panels_name_first_bad_node():
    f = np.vectorize(lambda t: math.inf if t > 0.5 else 0.0, otypes=[float])
    with pytest.raises(DomainError) as info:
        _panels(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    first = 0.5 + 0.5 * next(x for x, _, _ in _NODES if 0.5 + 0.5 * x > 0.5)
    assert str(info.value) == f"integrand log-value at {first} is inf"


def _rows(rows):
    """A logf giving the nodes of panel i the log-values rows[i]."""
    return lambda x: np.array(rows, dtype=float).ravel()


def test_panel_sums_match_fsum_reference():
    """Rows whose node log-values span more than 745 e-folds, so that their
    smallest terms underflow, rows of zeros (K15 and the error are -inf),
    and constant rows whose K15 and G7 round to the same double, so that
    the error is -inf."""
    t = np.array([x for x, _, _ in _NODES])
    spans = [800.0 * t, 3.0 - 1e3 * t, 2e3 * t * t - 7e3, np.where(t > 0.5, -np.inf, 1e3 * t)]
    zeros = [np.full(15, -np.inf)] * 2
    flat = [np.full(15, c) for c in (2.5, -3e2, 7e3)]
    rows = spans + zeros + flat
    a = np.arange(len(rows), dtype=float)
    b = a + np.array([1.0, 1e-3, 30.0, 2.0, 1.0, 0.0, 1.0, 4.0, 1e-9])
    assert all(r[r > -np.inf].min() < r.max() - 745.0 for r in spans)
    k15, err = _panels(_rows(rows), a, b)
    for i, row in enumerate(rows):
        k_ref, e_ref = _panel_ref(row.tolist(), a[i], b[i])
        assert _close(k15[i], k_ref)
        if i < len(spans):
            gap = abs(math.exp(err[i] - k_ref) - math.exp(e_ref - k_ref))
            assert gap <= 2 * _BOUND * max(1.0, abs(k_ref))
        else:
            # a row of zeros, or K15 == G7, here as in the reference
            assert err[i] == e_ref == -math.inf
    assert k15[len(spans):len(spans) + len(zeros)].tolist() == [-math.inf] * len(zeros)


def _row_sums(rows, a, b):
    """(log K15, log |K15 - G7|) of the panels [a[i], b[i]] from their node
    log-values, each rule's terms summed along a row of an (n, 15) or
    (n, 7) array by numpy's own sum."""
    log_half = np.log(b - a) - math.log(2.0)
    out = []
    for idx, lw in (([i for i, _ in enumerate(_NODES)], [w for _, w, _ in _NODES]),
                    ([i for i, n in enumerate(_NODES) if n[2] is not None],
                     [w for _, _, w in _NODES if w is not None])):
        terms = rows[:, idx] + np.array(lw)
        m = terms.max(axis=1)
        out.append(m + np.log(np.exp(terms - m[:, None]).sum(axis=1)) + log_half)
    k15, g7 = out
    hi, lo = np.maximum(k15, g7), np.minimum(k15, g7)
    with np.errstate(divide="ignore"):
        return k15, np.where(k15 == g7, -np.inf, hi + np.log1p(-np.exp(lo - hi)))


def test_panel_sums_are_deterministic():
    """The same batch gives bit-identical arrays, and a panel's sums do not
    depend on the rest of its batch: they are bit for bit those of numpy's
    row sums, with which the refinement's work counts were recorded."""
    rng = np.random.default_rng(3)
    n = 300
    a = rng.uniform(0.0, 10.0, n)
    b = a + rng.uniform(0.0, 1.0, n)
    rows = rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 3.0, (n, 1)), (n, 15)) + rng.uniform(-1e4, 1e4, (n, 1))
    first = _panels(_rows(rows), a, b)
    again = _panels(_rows(rows), a, b)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(first, again))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(first, _row_sums(rows, a, b)))
    for i in range(0, n, 7):
        alone = _panels(_rows(rows[i:i + 1]), a[i:i + 1], b[i:i + 1])
        assert all(x[i:i + 1].tobytes() == y.tobytes() for x, y in zip(first, alone))


@pytest.mark.parametrize("f, lo, hi, kwargs", [
    (lambda x: 2.0 * math.log(x) if x > 0.0 else -math.inf, 0.0, 1.0, {}),
    (lambda t: -t * t, -10.0, 10.0, {}),
    (lambda t: 50.0 * t, 0.0, 200.0, {}),
    (lambda t: -0.5 * math.log(t), 0.0, 1.0, {}),
    (lambda t: 0.0 if t < 0.3 else math.log(2.0), 0.0, 1.0, {}),
    (lambda t: math.sin(t) - t, 0.0, 30.0, {}),
    (lambda t: -math.inf, 0.0, 2.0, {}),
    (lambda t: -(((t - 0.37) / 1e-3) ** 2), 0.0, 1.0, {}),
    (lambda t: -(((t - 0.37) / 1e-8) ** 2), 0.0, 1.0, {}),
    (lambda t: 0.0, 0.0, 5e-324, {}),
    (lambda t: -(((t - 0.37) / 1e-8) ** 2), 0.0, 1.0, {"max_panels": 8}),
    (lambda t: -(((t - 0.37) / 1e-8) ** 2), 0.0, 1.0, {"max_panels": 100}),
])
def test_round_driver_matches_serial(f, lo, hi, kwargs, monkeypatch):
    """Bisecting each round's fewest worst panels at once costs what one at a time does."""
    if "max_panels" in kwargs:
        monkeypatch.setattr(quadrature, "_MAX_PANELS", kwargs["max_panels"])
    try:
        ref = _log_quad_serial(f, lo, hi, **kwargs)
    except QuadratureError as exc:
        with pytest.raises(QuadratureError) as info:
            log_quad(np.vectorize(f, otypes=[float]), lo, hi)
        assert (info.value.panels, info.value.evals) == (exc.panels, exc.evals)
        return
    res = log_quad(np.vectorize(f, otypes=[float]), lo, hi)
    assert (res.panels, res.evals) == (ref.panels, ref.evals)
    assert _close(res.log_value, ref.log_value)


def _one_log_quad_per_segment(logf, lo, radii, rel_tol):
    """_cumulative as one log_quad call per segment, in order, each
    cumulative result the exactly rounded combination of its segments."""
    parts, out, start = [], [], lo
    for R in radii:
        if R > start:
            parts.append(log_quad(logf, start, R, rel_tol=rel_tol))
            start = R
        total, rel = log_combine(parts)
        out.append(LogQuadResult(total, rel, sum(r.panels for r in parts),
                                 sum(r.evals for r in parts)))
    return out


@settings(max_examples=40, deadline=None)
@example(freq=1e3, lo=0.0, below=0, gaps=[1.0, 6.0, 6.0], vanish=0, rel_tol=1e-12)
@example(freq=30.0, lo=1.0, below=2, gaps=[2.0, 0.0, 3.0, 1.0], vanish=2, rel_tol=1e-12)
@given(freq=st.sampled_from([1.0, 30.0, 1e3, 3e3]), lo=st.floats(0.0, 10.0),
       below=st.integers(0, 2), gaps=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=6),
       vanish=st.integers(0, 3), rel_tol=_rel_tols)
def test_joint_segments_match_one_log_quad_per_segment(freq, lo, below, gaps, vanish, rel_tol):
    """Refining all segments together changes no segment's panels, a
    segment that runs out of its 4096 panels fails as it does alone, and
    each cumulative result is its segments' exactly rounded sum: within 4
    ulps in log value and 1e-15 relative in rel_error.  The integrand vanishes below
    the vanish-th radius above lo, so whole segments may be zero."""
    radii = _radii(lo, below, gaps)
    ends = [lo] + sorted({R for R in radii if R > lo})
    cut = ends[min(vanish, len(ends) - 1)]
    logf = lambda t: np.where(t > cut, np.sin(freq * t), -np.inf)
    try:
        ref = _one_log_quad_per_segment(logf, lo, radii, rel_tol)
    except QuadratureError as exc:
        with pytest.raises(QuadratureError) as info:
            _cumulative(logf, lo, radii, rel_tol=rel_tol)
        got = info.value
        assert (str(got), got.panels, got.evals) == (str(exc), exc.panels, exc.evals)
        assert _close(got.log_value, exc.log_value)
        return
    res = _cumulative(logf, lo, radii, rel_tol=rel_tol)
    assert [(r.panels, r.evals) for r in res] == [(r.panels, r.evals) for r in ref]
    for r, s in zip(res, ref):
        if s.log_value == -math.inf:
            assert (r.log_value, r.rel_error) == (-math.inf, 0.0)
        else:
            assert abs(r.log_value - s.log_value) <= 4 * math.ulp(max(1.0, abs(s.log_value)))
            assert abs(r.rel_error - s.rel_error) <= 1e-15 * s.rel_error


# ---------------------------------------------------------------------
# several integrands refined together
# ---------------------------------------------------------------------


def _per_table(*fs):
    """One logf(x, starts) giving table t's nodes the integrand fs[t]."""
    def logf(x, starts):
        return np.concatenate([f(x[starts[t]:starts[t + 1]]) for t, f in enumerate(fs)])
    return logf


@settings(max_examples=30, deadline=None)
@given(freqs=st.lists(st.sampled_from([1.0, 30.0, 1e3]), min_size=1, max_size=4),
       los=st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4),
       gaps=st.lists(st.lists(st.floats(0.0, 6.0), max_size=4), min_size=4, max_size=4),
       rel_tol=_rel_tols)
def test_tables_match_one_cumulative_per_table(freqs, los, gaps, rel_tol):
    """Each table gets the panels, evals and values it gets refined alone."""
    fs = [lambda t, w=w: np.sin(w * t) for w in freqs]
    tables = [(lo, _radii(lo, 1, gap)) for lo, gap in zip(los, gaps)][:len(fs)]
    try:
        refs = [_cumulative(f, lo, radii, rel_tol=rel_tol)
                for f, (lo, radii) in zip(fs, tables)]
    except QuadratureError as exc:
        with pytest.raises(QuadratureError) as info:
            log_quad_tables(_per_table(*fs), tables, rel_tol=rel_tol)
        assert (str(info.value), info.value.panels) == (str(exc), exc.panels)
        return
    got = log_quad_tables(_per_table(*fs), tables, rel_tol=rel_tol)
    assert len(got) == len(refs)
    for res, ref in zip(got, refs):
        assert [(r.panels, r.evals) for r in res] == [(r.panels, r.evals) for r in ref]
        assert all(_close(r.log_value, s.log_value) for r, s in zip(res, ref))


def _nan_above(cut):
    return lambda t: np.where(t > cut, np.nan, -t * t)


def test_tables_raise_the_first_table_error():
    """The error raised is the one refining the tables in order would raise:
    a budget failure of table 0 comes before the nan, or the DomainError
    raised by the integrand, that table 1 meets on its first round."""
    wavy = lambda t: np.sin(3e3 * t)

    def refuse(t):
        if t.size:
            raise DomainError("table 1 refuses")
        return t

    tables = [(0.0, [2.0]), (0.0, [2.0])]
    with pytest.raises(QuadratureError) as alone:
        _cumulative(wavy, 0.0, [2.0])
    for second in (_nan_above(0.5), refuse):
        with pytest.raises(QuadratureError) as info:
            log_quad_tables(_per_table(wavy, second), tables)
        assert (str(info.value), info.value.panels, info.value.evals) == (
            str(alone.value), alone.value.panels, alone.value.evals)

    # with table 0 converged, table 1 fails as it does alone
    with pytest.raises(DomainError) as alone:
        _cumulative(_nan_above(0.1), 0.0, [2.0])
    with pytest.raises(DomainError) as info:
        log_quad_tables(_per_table(lambda t: -t * t, _nan_above(0.1)), tables)
    assert str(info.value) == str(alone.value)


def test_budget_failure_is_not_refined_again():
    """A table that runs out of panels fails at the tolerance test, first in
    list order, so the pass makes no logf call past its joint rounds."""
    wavy = lambda t: np.sin(3e3 * t)
    calls = [0]

    def counted(logf):
        def f(x, starts):
            calls[0] += 1
            return logf(x, starts)
        return f

    with pytest.raises(QuadratureError) as alone:
        log_quad_tables(counted(_per_table(wavy)), [(0.0, [2.0])])
    rounds, calls[0] = calls[0], 0
    for fs in ((wavy, lambda t: -t * t), (lambda t: -t * t, wavy)):
        with pytest.raises(QuadratureError) as info:
            log_quad_tables(counted(_per_table(*fs)), [(0.0, [2.0])] * 2)
        assert (str(info.value), info.value.panels) == (str(alone.value), alone.value.panels)
        assert calls[0] == rounds
        calls[0] = 0
