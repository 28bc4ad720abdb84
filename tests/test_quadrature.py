"""Tests for the log-domain adaptive quadrature.

Expected values are closed-form antiderivatives evaluated by hand, so the
quadrature is always compared against independent arithmetic.
"""

import math
import sys

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
from growthlab.quadrature import (_NODES, _initial_breakpoints, _log_combine, _panels,
                                  log_quad_tables)
from logspace import log_diff


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


def _panel_loop(logf, a, b):
    """(log K15, log |K15 - G7|) for one panel [a, b], one node at a time."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals15 = []
    vals7 = []
    for x, lwk, lwg in _NODES:
        v = logf(mid + half * x)
        if math.isnan(v) or v == math.inf:
            raise DomainError(f"integrand log-value at {mid + half * x} is {v}")
        vals15.append(v + lwk)
        if lwg is not None:
            vals7.append(v + lwg)
    log_half = math.log(b - a) - math.log(2.0) if b > a else -math.inf
    k15 = log_sum(vals15) + log_half
    g7 = log_sum(vals7) + log_half
    return k15, log_diff(k15, g7)


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


def test_batched_panels_name_first_bad_node():
    f = np.vectorize(lambda t: math.inf if t > 0.5 else 0.0, otypes=[float])
    with pytest.raises(DomainError) as info:
        _panels(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    first = 0.5 + 0.5 * next(x for x, _, _ in _NODES if 0.5 + 0.5 * x > 0.5)
    assert str(info.value) == f"integrand log-value at {first} is inf"


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
    """_cumulative as one log_quad call per segment, in order."""
    parts, out, start = [], [], lo
    for R in radii:
        if R > start:
            parts.append(log_quad(logf, start, R, rel_tol=rel_tol))
            start = R
        total, rel = _log_combine(parts)
        out.append(LogQuadResult(total, rel, sum(r.panels for r in parts),
                                 sum(r.evals for r in parts)))
    return out


@settings(max_examples=40, deadline=None)
@example(freq=1e3, lo=0.0, below=0, gaps=[1.0, 6.0, 6.0], rel_tol=1e-12)
@given(freq=st.sampled_from([1.0, 30.0, 1e3, 3e3]), lo=st.floats(0.0, 10.0),
       below=st.integers(0, 2), gaps=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=6),
       rel_tol=_rel_tols)
def test_joint_segments_match_one_log_quad_per_segment(freq, lo, below, gaps, rel_tol):
    """Refining all segments together changes no segment's panels, and a
    segment that runs out of its 4096 panels fails as it does alone."""
    logf = lambda t: np.sin(freq * t)
    radii = _radii(lo, below, gaps)
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
    assert all(_close(r.log_value, s.log_value) for r, s in zip(res, ref))


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
