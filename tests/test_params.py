"""Unit tests for the sharp and comparison constants.

Expected values marked as frozen were computed independently with exact
arithmetic or a 50-digit mpmath session before being written down here.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import growthlab

from growthlab import (
    ComparisonConstants,
    DomainError,
    Params,
    classify_l1_condition,
    comparison_constants,
    compute_C0,
    liouville_check,
    solve_C1,
)

P2_QS = (1.5, 2.0, 3.0, 5.0)
P2_LAMS = (0.25, 1.0, 4.0)


@pytest.mark.parametrize("q", P2_QS)
@pytest.mark.parametrize("lam", P2_LAMS)
def test_p2_closed_form_C0(q, lam):
    expected = 2.0 * math.sqrt(q - 1.0) * math.sqrt(lam)
    got = compute_C0(2.0, q, lam)
    assert got == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("q", P2_QS)
@pytest.mark.parametrize("lam", P2_LAMS)
def test_p2_closed_form_C1(q, lam):
    expected = 1.0 + math.sqrt(1.0 + 4.0 * (q - 1.0) * lam)
    got = solve_C1(2.0, q, lam)
    assert got == pytest.approx(expected, rel=1e-10)


def test_C1_golden_case():
    # frozen: p = q = 2, lam = 1 gives C0 = 2 and C1 = 1 + sqrt(5)
    assert compute_C0(2.0, 2.0, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert solve_C1(2.0, 2.0, 1.0) == pytest.approx(3.23606797749979, rel=1e-12)


def random_tuples(n, seed):
    """Valid (p, q, lam, k) tuples drawn from wide log-uniform ranges."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(1.05, 6.0, n)
    q = p - 1.0 + 10.0 ** rng.uniform(-3.0, 1.0, n)
    lam = 10.0 ** rng.uniform(-3.0, 3.0, n)
    k = 10.0 ** rng.uniform(-0.5, 0.5, n)
    return np.stack([p, q, lam, k], axis=1)


def assert_root_bracketed(p, pc, C0, root):
    """The root is correct when f crosses C0 within the solver tolerance.

    f(C) = C^(1/p) (C - p)^(1/p') is strictly increasing on [p, inf), so
    certifying f(root - w) <= C0 <= f(root + w) for w at the root finder's
    absolute tolerance pins the root even where f is too steep for a small
    residual to be representable (the root can sit within one ulp of p).
    """

    def f(C):
        if C <= p:
            return 0.0
        return C ** (1.0 / p) * (C - p) ** (1.0 / pc)

    w = 2.0 * (1e-13 + 4.0 * math.ulp(root))
    assert f(root - w) <= C0 * (1.0 + 1e-12)
    assert f(root + w) >= C0 * (1.0 - 1e-12)


def test_C1_defining_equation_random():
    for p, q, lam, k in random_tuples(200, seed=20240817):
        C0 = compute_C0(p, q, lam, k)
        C1 = solve_C1(p, q, lam, k)
        assert_root_bracketed(p, p / (p - 1.0), C0, C1)


def test_constant_ordering_random():
    for p, q, lam, k in random_tuples(500, seed=7):
        C0 = compute_C0(p, q, lam, k)
        C1 = solve_C1(p, q, lam, k)
        assert C0 < C1 < C0 + p


def test_C1_extreme_parameters():
    # nearly degenerate exponent gap and a huge amplitude still bracket
    C0 = compute_C0(1.05, 0.05 + 1e-6, 1e8)
    C1 = solve_C1(1.05, 0.05 + 1e-6, 1e8)
    pc = 1.05 / 0.05
    assert C1 ** (1.0 / 1.05) * (C1 - 1.05) ** (1.0 / pc) == pytest.approx(C0, rel=1e-9)


def c1_oracle(p, q, lam, k=1.0):
    """50-digit root of C**(1/p) * (C-p)**(1/p') = C0 by plain bisection.

    C0 comes from its closed form in mpmath.  The root is bisected in
    d = C - p on (2**-4096, C0) at geometric midpoints, since d can be as
    small as 1e-320.
    """
    with mpmath.workdps(50):
        p, q, lam, k = (mpmath.mpf(v) for v in (p, q, lam, k))
        pc = p / (p - 1)
        C0 = p * ((q - p + 1) / (p - 1)) ** (1 / pc) * lam ** (1 / p) / k

        def f(d):
            return (p + d) ** (1 / p) * d ** (1 / pc) - C0

        lo, hi = mpmath.mpf(2) ** -4096, C0
        assert f(lo) < 0 < f(hi)
        while hi / lo - 1 > mpmath.mpf(10) ** -45:
            mid = mpmath.sqrt(lo * hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float(p + lo)


C1_ORACLE_CASES = [
    (1.01, 0.5, 0.1),
    (1.01, 0.5, 1e-3),
    (1.001, 0.5, 0.5),
    (1.1, 0.5, 0.5),
    (2.0, 2.0, 1e-320),
]


@pytest.mark.parametrize("p, q, lam", C1_ORACLE_CASES)
def test_C1_mpmath_oracle(p, q, lam):
    assert solve_C1(p, q, lam) == pytest.approx(c1_oracle(p, q, lam), rel=1e-15)


def test_c5_mpmath_oracle_near_one():
    cc = comparison_constants(Params(1.01, 0.5, 1.01, 0.1))
    assert cc.c5 == pytest.approx(c1_oracle(1.01, 0.5, 0.1), rel=1e-15)


def test_comparison_constants_match_sharp_constants_bitwise():
    # at eps = 0 the chain reuses the sharp formulas, so equality is exact
    for p, q, lam, k in random_tuples(500, seed=11):
        cc = comparison_constants(Params(p, q, p, lam, k))
        assert cc.c3 == compute_C0(p, q, lam, k)
        assert cc.c5 == solve_C1(p, q, lam, k)


def test_import_does_not_load_scipy():
    env = dict(os.environ)
    src = str(Path(growthlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import growthlab, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


# the subcommands that compute closed forms or check one radius at a time;
# the first three load neither models nor sharp
NUMPY_FREE = [
    ["constants", "--p", "2", "--q", "3", "--mu", "1", "--lambda", "1"],
    ["liouville", "--p", "2", "--q", "2", "--lambda", "1", "--growth", "1.5"],
    ["l1", "--slope", "0.5", "--p", "2"],
    ["l1", "--euclidean", "2", "--p", "3", "--q", "3"],
    ["verify", "--p", "2", "--q", "3", "--mu", "1"],
    ["l1", "--p", "2", "--q", "3", "--mu", "1"],
]
# the subcommands that integrate
WITH_NUMPY = [
    ["sharp", "--p", "2", "--q", "3", "--mu", "1", "--rate"],
    ["rate", "--p", "2", "--q", "3", "--mu", "1", "--samples", "4"],
    ["inequalities", "--p", "2", "--q", "3", "--mu", "1"],
]

_RUN_COMMANDS = """
import json, sys
import growthlab
def loaded():
    return " ".join(str(m in sys.modules) for m in
                    ("numpy", "growthlab.models", "growthlab.sharp"))
print("import", 0, loaded(), file=sys.stderr)
from growthlab.cli import main
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    print(argv[0], rc, loaded(), file=sys.stderr)
"""


def test_only_the_integrating_subcommands_load_numpy():
    # each line: subcommand, exit code, and whether numpy, growthlab.models
    # and growthlab.sharp are loaded after it; none of NUMPY_FREE loads
    # numpy, so one process can run them in turn
    env = dict(os.environ)
    src = str(Path(growthlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    err = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, json.dumps(NUMPY_FREE + WITH_NUMPY)],
        env=env, capture_output=True, text=True, check=True,
    ).stderr
    assert err.splitlines() == [
        "import 0 False False False",
        "constants 0 False False False",
        "liouville 0 False False False",
        "l1 0 False False False",  # --slope
        "l1 0 False True False",  # --euclidean
        "verify 0 False True True",
        "l1 0 False True True",
        "sharp 0 True True True",
        "rate 0 True True True",
        "inequalities 0 True True True",
    ]


def test_lazy_namespace():
    for name in growthlab.__all__:
        getattr(growthlab, name)
    namespace = {}
    exec("from growthlab import *", namespace)
    assert set(growthlab.__all__) <= set(namespace)
    assert set(growthlab.__all__) <= set(dir(growthlab))
    assert growthlab.QuadratureError is growthlab.quadrature.QuadratureError
    # the names that moved out of growth are still reachable there
    for name in ("CheckReport", "QuadratureError", "classify_l1_condition",
                 "log_sphere_integral", "sphere_log_slope"):
        assert getattr(growthlab.growth, name) is getattr(growthlab, name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        growthlab.no_such_name


def test_public_names():
    """The public API: a name leaves or joins it only by a reviewed change."""
    assert growthlab.__all__ == [
        "CheckReport", "ComparisonConstants", "DomainError", "ExpPower", "GrowthSample", "LogQuadResult",
        "ModelManifold", "PHarmonicRn", "Params", "PowerLaw",
        "QuadratureError", "RadialProfile", "RateEstimate", "SharpExample",
        "SharpPotential", "build_sharp_example", "check_caccioppoli",
        "check_growth_lower_bound", "check_surface_capacity", "choose_ac",
        "classify_l1_condition", "comparison_constants", "compute_C0",
        "default_check_pairs", "default_qs", "estimate_rate", "fd_cross_check", "growth_samples",
        "liouville_check", "log_ball_integral",
        "log_energy_integral", "log_quad", "log_sphere_integral", "log_sum",
        "measure_rate", "p_laplacian_scaled", "rate_window",
        "run_inequality_suite", "sharp_grid", "solve_C1", "sphere_log_slope",
        "subsolution_residual",
    ]


def test_trace_targets_resolve():
    """Every function the benchmark's tracer rebinds still exists.

    perfbench/tracing.py looks each (module, name) of TARGETS up with no
    default, so a deleted or renamed one breaks every traced benchmark run.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), name))


def test_benchmark_library_names_resolve():
    """The library names perfbench's worker and workloads call outside the
    tracer's TARGETS (test_trace_targets_resolve) still exist: the grid's
    integrand methods, timed per call, and the l1 verdict through growth."""
    import growthlab.growth
    import growthlab.models

    assert callable(growthlab.models.ModelManifold.log_warp)
    assert callable(growthlab.models.RadialProfile.log_value)
    assert growthlab.growth.classify_l1_condition is growthlab.classify_l1_condition


def test_derived_exponents():
    d = Params(3.0, 4.0, 1.5, 1.0)
    assert d.p_conj == pytest.approx(1.5, rel=1e-15)
    assert d.gamma == pytest.approx(2.0, rel=1e-15)
    assert d.beta == pytest.approx(0.5, rel=1e-15)
    assert Params(3.0, 4.0, 3.0, 1.0).beta == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=1.0, q=2.0, mu=0.0, lam=1.0),
        dict(p=2.0, q=1.0, mu=0.0, lam=1.0),
        dict(p=2.0, q=2.0, mu=-0.1, lam=1.0),
        dict(p=2.0, q=2.0, mu=2.1, lam=1.0),
        dict(p=2.0, q=2.0, mu=0.0, lam=0.0),
        dict(p=2.0, q=2.0, mu=0.0, lam=1.0, k=0.0),
        dict(p=math.inf, q=math.inf, mu=0.0, lam=1.0),
        dict(p=2.0, q=math.inf, mu=0.0, lam=1.0),
        dict(p=2.0, q=2.0, mu=0.0, lam=math.inf),
        dict(p=2.0, q=2.0, mu=0.0, lam=1.0, k=math.inf),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(DomainError):
        Params(**kwargs)


def check_comparison_identities(params, eps):
    """Recompute every comparison constant from scratch and compare."""
    cc = comparison_constants(params, eps=eps)
    p, q, k = params.p, params.q, params.k
    amp = params.lam - eps
    pc = p / (p - 1.0)
    gamma = q - p + 1.0
    assert cc.eps == eps
    assert cc.c1 == pytest.approx(
        ((p - 1.0) * amp / gamma) ** (1.0 / (p * pc)) * k ** (1.0 / p), rel=1e-12
    )
    assert cc.c2 == pytest.approx(gamma / (amp * k ** pc), rel=1e-12)
    assert cc.c3 == pytest.approx(compute_C0(p, q, amp, k), rel=1e-12)
    pref = k ** (p * pc) * (p - 1.0) ** (p - 1.0) * 4.0 ** p
    pref /= gamma * min(1.0, gamma ** (p - 1.0))
    assert cc.C2 == pytest.approx(1.0 + cc.c2 * pref, rel=1e-12)
    if params.mu == p:
        c5 = cc.c5
        assert_root_bracketed(p, pc, cc.c3, c5)
        assert cc.c4 == pytest.approx((p * amp / c5) ** (1.0 / p), rel=1e-12)
        assert cc.c6 == pytest.approx(
            (p - 1.0) * c5 ** pc / (p ** pc * amp ** (pc - 1.0) * amp), rel=1e-12
        )
    else:
        assert cc.c4 is None and cc.c5 is None and cc.c6 is None


@pytest.mark.parametrize("mu_kind", ["zero", "half", "full"])
@pytest.mark.parametrize("eps_frac", [0.0, 0.3])
def test_comparison_identities_random(mu_kind, eps_frac):
    for p, q, lam, k in random_tuples(40, seed=99):
        mu = {"zero": 0.0, "half": p / 2.0, "full": p}[mu_kind]
        params = Params(p, q, mu, lam, k)
        check_comparison_identities(params, eps=eps_frac * lam)


def test_comparison_constants_frozen_borderline():
    # frozen: p = q = 2, mu = 2, lam = 1 gives c5 = 1 + sqrt(5) and
    # c6 = (1 + sqrt(5))^2 / 4 = (3 + sqrt(5)) / 2
    cc = comparison_constants(Params(2.0, 2.0, 2.0, 1.0))
    assert cc.c5 == pytest.approx(3.23606797749979, rel=1e-12)
    assert cc.c6 == pytest.approx(2.618033988749895, rel=1e-12)
    assert cc.c4 == pytest.approx(math.sqrt(2.0 / cc.c5), rel=1e-12)
    assert isinstance(cc, ComparisonConstants)


@pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
def test_comparison_constants_eps_bounds(eps):
    with pytest.raises(DomainError):
        comparison_constants(Params(2.0, 2.0, 0.0, 1.0), eps=eps)


@pytest.mark.parametrize("lam,k", [(1e300, 1e-300), (1e-300, 1e300), (1e300, 1e300), (1e-300, 1e-300)])
@pytest.mark.parametrize("mu", [0.0, 2.0])
def test_comparison_constants_out_of_range(mu, lam, k):
    """Constants that leave the positive doubles raise DomainError."""
    with pytest.raises(DomainError, match=r"p=2.*lam=.*k="):
        comparison_constants(Params(2.0, 3.0, mu, lam, k))


def test_liouville_check_threshold():
    params = Params(2.0, 2.0, 0.0, 1.0)
    C0 = compute_C0(2.0, 2.0, 1.0)
    assert liouville_check(params, C0 - 1e-12) == "forced_zero"
    assert liouville_check(params, C0) == "inconclusive"
    assert liouville_check(params, C0 + 1e-12) == "inconclusive"
    assert liouville_check(params, 0.0) == "forced_zero"


def test_liouville_check_rejects_non_finite():
    params = Params(2.0, 2.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        liouville_check(params, float("nan"))
    with pytest.raises(DomainError):
        liouville_check(params, float("inf"))


@pytest.mark.parametrize("slope, p, message", [
    (0.5, 1.0, "p must exceed 1, got 1.0"),
    (math.nan, 2.0, "sphere_log_slope is nan"),
    (math.inf, math.inf, "p must be finite, got inf"),
    (1.0, math.inf, "p must be finite, got inf"),
    # p is named before the slope, as for every other p
    (math.nan, math.inf, "p must be finite, got inf"),
], ids=["p-one", "slope-nan", "p-inf-slope-inf", "p-inf", "p-inf-slope-nan"])
def test_classify_l1_condition_error_messages(slope, p, message):
    with pytest.raises(DomainError) as info:
        classify_l1_condition(slope, p)
    assert str(info.value) == message


def test_solve_C1_names_a_C0_past_the_largest_double():
    # C0 = 2 * sqrt(q - 1) * sqrt(lam) / k = 2 * sqrt(2) / 1e-310 is inf
    with pytest.raises(DomainError) as info:
        solve_C1(2.0, 3.0, 1.0, 1e-310)
    assert str(info.value) == "C0 must be positive and finite, got inf at p=2.0"
