"""growthlab: sharp growth constants, extremal examples and integral checks.

The package computes the two sharp constants governing how fast a positive
solution of a coercive quasilinear differential inequality can grow, builds
the radially symmetric model-surface examples that attain those constants
exactly, and verifies the supporting growth estimates and integral
inequalities numerically: by residual evaluation, adaptive log-scale
quadrature, and asymptotic rate extraction.
"""

from .growth import (CheckReport, GrowthSample, RateEstimate,
                     check_caccioppoli, check_growth_lower_bound,
                     check_surface_capacity, classify_l1_condition,
                     default_check_pairs, estimate_rate, growth_samples,
                     iterated_log, log_ball_integral, log_energy_integral,
                     log_sphere_integral, measure_rate, rate_window,
                     run_inequality_suite, sphere_log_slope)
from .models import (Affine, ExpPower, ModelManifold, PHarmonicRn, PowerLaw,
                     RadialProfile, SharpPotential, fd_cross_check,
                     p_laplacian_radial, p_laplacian_scaled, potential_sharp,
                     subsolution_residual)
from .params import (ComparisonConstants, DerivedExponents, DomainError,
                     Params, comparison_constants, compute_C0,
                     derived_exponents, liouville_check, solve_C1)
from .quadrature import (LogQuadResult, QuadratureError, log_diff, log_quad,
                         log_sum)
from .sharp import (SharpExample, build_sharp_example, choose_ac,
                    default_qs, sharp_grid, verify_rate_identity)

__version__ = "0.1.0"

__all__ = [
    "Affine", "CheckReport", "ComparisonConstants", "DerivedExponents",
    "DomainError", "ExpPower", "GrowthSample", "LogQuadResult",
    "ModelManifold", "PHarmonicRn", "Params", "PowerLaw", "QuadratureError",
    "RadialProfile", "RateEstimate", "SharpExample",
    "SharpPotential", "build_sharp_example", "check_caccioppoli",
    "check_growth_lower_bound", "check_surface_capacity", "choose_ac",
    "classify_l1_condition", "comparison_constants", "compute_C0",
    "default_check_pairs", "default_qs", "derived_exponents",
    "estimate_rate", "fd_cross_check", "growth_samples", "iterated_log",
    "liouville_check", "log_ball_integral", "log_diff",
    "log_energy_integral", "log_quad", "log_sphere_integral", "log_sum",
    "measure_rate", "p_laplacian_radial", "p_laplacian_scaled",
    "potential_sharp", "rate_window", "run_inequality_suite", "sharp_grid",
    "solve_C1", "sphere_log_slope", "subsolution_residual",
    "verify_rate_identity",
]
