"""growthlab: sharp growth constants, extremal examples and integral checks.

The package computes the two sharp constants governing how fast a positive
solution of a coercive quasilinear differential inequality can grow, builds
the radially symmetric model-surface examples that attain those constants
exactly, and verifies the supporting growth estimates and integral
inequalities numerically: by residual evaluation, adaptive log-scale
quadrature, and asymptotic rate extraction.

Importing the package loads none of its modules: each of them, and each
name of __all__, is imported on first use (PEP 562).  Only quadrature and
growth import numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_HOMES = {
    "growth": (
        "GrowthSample", "RateEstimate", "check_caccioppoli",
        "check_growth_lower_bound", "check_surface_capacity",
        "default_check_pairs", "estimate_rate", "growth_samples",
        "log_ball_integral", "log_energy_integral", "measure_rate",
        "rate_window", "run_inequality_suite"),
    "models": (
        "ExpPower", "ModelManifold", "PHarmonicRn", "PowerLaw",
        "RadialProfile", "SharpPotential", "fd_cross_check",
        "log_sphere_integral", "p_laplacian_scaled", "sphere_log_slope",
        "subsolution_residual"),
    "params": (
        "CheckReport", "ComparisonConstants", "DomainError", "Params",
        "QuadratureError", "classify_l1_condition", "comparison_constants",
        "compute_C0", "liouville_check", "solve_C1"),
    "quadrature": ("LogQuadResult", "log_quad", "log_sum"),
    "sharp": (
        "SharpExample", "build_sharp_example", "choose_ac", "default_qs",
        "sharp_grid"),
}
__all__ = sorted(name for names in _HOMES.values() for name in names)


def __getattr__(name):
    if name in _HOMES:
        return importlib.import_module(f".{name}", __name__)
    for module, names in _HOMES.items():
        if name in names:
            value = globals()[name] = getattr(__getattr__(module), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
