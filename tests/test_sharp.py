"""Tests for extremal example construction.

Frozen expectations were derived by hand from the closed formulas (warp
and profile exponents, amplitudes, level radii) and cross-checked with a
high-precision mpmath session before being recorded.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthlab import (
    DomainError,
    ModelManifold,
    Params,
    PowerLaw,
    build_sharp_example,
    choose_ac,
    classify_l1_condition,
    compute_C0,
    default_qs,
    fd_cross_check,
    p_laplacian_scaled,
    sharp_grid,
    subsolution_residual,
)


def test_choose_ac_branches_p2():
    # the pivot value of q at p = 2 is p (p - 1) = 2
    assert choose_ac(2.0, 1.5) == (-1.0, 2.0)
    assert choose_ac(2.0, 2.0) == (0.0, 1.0)
    assert choose_ac(2.0, 3.0) == (1.0, 1.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
def test_default_qs_cover_branches(p):
    qs = default_qs(p)
    signs = [choose_ac(p, q)[0] for q in qs]
    assert signs == [-1.0, 0.0, 1.0]
    for q in qs:
        assert q > p - 1.0


def test_choose_ac_identity_random():
    """a + q c = p ((p - 1) c + a) whenever (a, c) comes from the chooser."""
    rng = np.random.default_rng(42)
    for _ in range(300):
        p = rng.uniform(1.05, 6.0)
        q = p - 1.0 + 10.0 ** rng.uniform(-2.0, 1.0)
        a, c = choose_ac(p, q)
        assert c > 0.0
        assert (p - 1.0) * c + a > 0.0
        lhs = a + q * c
        rhs = p * ((p - 1.0) * c + a)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_build_constant_potential_example():
    ex = build_sharp_example(2.0, 2.0, 0.0)
    assert (ex.a, ex.c) == (0.0, 1.0)
    assert ex.lam == pytest.approx(1.0, rel=1e-14)
    assert ex.expected_rate == pytest.approx(2.0, rel=1e-14)
    # v = e^t starts at level 2 e, reached at t = 1 + log 2
    assert ex.s0 == pytest.approx(2.0 * math.e, rel=1e-13)
    assert ex.t0 == pytest.approx(1.0 + math.log(2.0), rel=1e-13)
    assert ex.eps_for_radius(ex.t0 + 1.0) == 0.0


def test_build_fast_growth_example():
    ex = build_sharp_example(2.0, 3.0, 0.0)
    assert (ex.a, ex.c) == (1.0, 1.0)
    assert ex.lam == pytest.approx(2.0, rel=1e-14)
    assert ex.expected_rate == pytest.approx(4.0, rel=1e-14)


def test_build_decaying_potential_example():
    # frozen: p = 2, q = 3, mu = 1 has beta = 1/2, a = c = 1,
    # lam = beta^2 (c + a) = 1/2, s0 = 2 e, t0 = (log 2 e)^2 = 2.86674...
    ex = build_sharp_example(2.0, 3.0, 1.0)
    assert (ex.a, ex.c) == (1.0, 1.0)
    assert ex.beta == pytest.approx(0.5, rel=1e-14)
    assert ex.lam == pytest.approx(0.5, rel=1e-14)
    assert ex.s0 == pytest.approx(2.0 * math.e, rel=1e-13)
    assert ex.t0 == pytest.approx(2.8667473750380923, rel=1e-13)
    assert ex.expected_rate == pytest.approx(2.0, rel=1e-14)
    assert ex.kappa == pytest.approx(4.0, rel=1e-14)


def test_build_borderline_example():
    ex = build_sharp_example(2.0, 2.0, 2.0)
    assert (ex.a, ex.c) == (0.0, 1.0)
    assert ex.is_borderline
    # v = t from level 2, and the rate picks up the extra p
    assert ex.s0 == pytest.approx(2.0, rel=1e-14)
    assert ex.t0 == pytest.approx(2.0, rel=1e-14)
    assert ex.expected_rate == pytest.approx(4.0, rel=1e-14)


def test_build_adjusted_positivity_example():
    """A negative warp exponent pushes the start past the positivity radius."""
    ex = build_sharp_example(3.0, 4.0, 1.5)
    assert (ex.a, ex.c) == (-1.0, 1.0)
    assert ex.lam == pytest.approx(0.125, rel=1e-14)
    assert ex.potential.r_min_positive == pytest.approx(4.0, rel=1e-13)
    # start level doubles the profile at the positivity radius: 2 e^2
    assert ex.s0 == pytest.approx(2.0 * math.e ** 2, rel=1e-13)
    assert ex.t0 == pytest.approx(7.253041736157983, rel=1e-12)
    assert ex.potential(ex.t0) == pytest.approx(0.0016470057713204695, rel=1e-11)
    R1 = 1.5 * ex.t0
    assert ex.eps_for_radius(R1) == pytest.approx(0.07579390636552252, rel=1e-10)
    assert 0.0 < ex.eps_for_radius(R1) < ex.lam


def test_grid_composition():
    grid = sharp_grid()
    assert len(grid) == 27
    keys = {(ex.p, ex.a, ex.mu / ex.p) for ex in grid}
    assert len(keys) == 27
    assert {k[0] for k in keys} == {1.5, 2.0, 3.0}
    assert {k[1] for k in keys} == {-1.0, 0.0, 1.0}
    assert {k[2] for k in keys} == {0.0, 0.5, 1.0}
    assert sum(ex.is_borderline for ex in grid) == 9


def test_grid_examples_start_positive():
    for ex in sharp_grid():
        assert ex.t0 > ex.potential.r_min_positive
        assert ex.potential(ex.t0) > 0.0
        assert math.exp(ex.profile.log_value(ex.t0)) == pytest.approx(ex.s0, rel=1e-11)
        assert ex.params == Params(ex.p, ex.q, ex.mu, ex.lam)
        assert 0.0 <= ex.eps_for_radius(2.0 * ex.t0) < ex.lam


def test_rate_identity_on_grid():
    """The designed growth rate equals the sharp constant on every example."""
    for ex in sharp_grid():
        target = compute_C0(ex.p, ex.q, ex.lam)
        if ex.is_borderline:
            target += ex.p
        assert abs(ex.expected_rate - target) <= 1e-10
        assert ex.expected_rate == pytest.approx(target, rel=1e-10)


def test_build_truncation_level_past_double_range():
    """At q = p - 1 + 1e-7, v at the positivity radius 1.5625e12 is exp(2.5e6)."""
    with pytest.raises(DomainError, match=r"exp\(2\.5e\+06\) at the positivity radius r_ref = 1\.5625e\+12"):
        build_sharp_example(1.5, 0.5000001, 0.75)


def test_build_validation():
    with pytest.raises(DomainError):
        build_sharp_example(2.0, 3.0, -0.5)
    with pytest.raises(DomainError):
        build_sharp_example(2.0, 3.0, 2.5)
    with pytest.raises(DomainError):
        build_sharp_example(2.0, 0.5, 1.0)


@pytest.mark.parametrize("call", [lambda: choose_ac(1.0, 2.0), lambda: default_qs(1.0)],
                         ids=["choose_ac", "default_qs"])
def test_p_of_one_error_message(call):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == "p must exceed 1, got 1.0"


@pytest.mark.parametrize("call, message", [
    # c = 0, (inf, inf, inf), "c must be positive" and "q must exceed p - 1 = inf"
    (lambda: choose_ac(2.0, math.inf), "q must be finite, got inf"),
    (lambda: default_qs(math.inf), "p must be finite, got inf"),
    (lambda: build_sharp_example(2.0, math.inf, 1.0), "q must be finite, got inf"),
    (lambda: build_sharp_example(math.inf, 3.0, 1.0), "p must be finite, got inf"),
    # c**(p - 1) overflowed with a traceback; lam = 0.0 reached Params
    (lambda: build_sharp_example(50.0, 2450.0000001, 0.0),
     "potential amplitude lam = inf leaves double range at p=50.0, mu=0.0"),
    (lambda: build_sharp_example(1e6, 1e13, 0.0),
     "potential amplitude lam = 0.0 leaves double range at p=1000000.0, mu=0.0"),
], ids=["choose-ac-q-inf", "default-qs-p-inf", "build-q-inf", "build-p-inf", "build-lam-overflow",
        "build-lam-underflow"])
def test_build_error_messages(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def _near(x):
    """x and the doubles on either side of it."""
    return st.sampled_from([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)])


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0])


@st.composite
def _exponents(draw):
    """(p, q, mu) from nan, the infinities, 0, 1 and the domain's edges
    p = 1, q = p - 1, mu = 0 and mu = p with their neighbouring doubles,
    mixed with finite draws."""
    finite = st.floats(-10.0, 10.0)
    p = draw(st.one_of(_SPECIAL, _near(1.0), finite))
    q = draw(st.one_of(_SPECIAL, _near(p - 1.0), finite))
    mu = draw(st.one_of(_SPECIAL, _near(0.0), _near(p), finite))
    return p, q, mu


_PLANE, _GROWING = ModelManifold(PowerLaw(1.0)), PowerLaw(2.0)


@settings(max_examples=300, deadline=None)
@given(pqmu=_exponents())
@example(pqmu=(math.inf, 3.0, 1.0))
@example(pqmu=(2.0, 3.0, 3.0))
def test_one_domain_one_message_at_every_entry_point(pqmu):
    """Where Params refuses (p, q, mu), build_sharp_example refuses them with
    the same message, and where p alone is out of the domain, so does every
    entry point that takes p."""
    p, q, mu = pqmu
    try:
        Params(p, q, mu, 1.0)
        return
    except DomainError as exc:
        message = str(exc)
    with pytest.raises(DomainError) as info:
        build_sharp_example(p, q, mu)
    assert str(info.value) == message
    if 1.0 < p < math.inf:
        return
    for call in (lambda: default_qs(p), lambda: classify_l1_condition(1.0, p),
                 lambda: p_laplacian_scaled(_PLANE, _GROWING, p, 3.0),
                 lambda: fd_cross_check(_PLANE, _GROWING, p, 3.0),
                 lambda: subsolution_residual(_PLANE, _GROWING, lambda r: 1.0, p, 0.0, [3.0])):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


def test_eps_for_radius_needs_a_radius_past_t0():
    ex = build_sharp_example(2.0, 3.0, 1.0)
    with pytest.raises(DomainError) as info:
        ex.eps_for_radius(ex.t0)
    assert str(info.value) == f"R1 must exceed t0={ex.t0}, got {ex.t0}"
