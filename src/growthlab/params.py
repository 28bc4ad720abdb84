"""Structural parameters and the sharp constants derived from them.

A problem instance is described by five numbers: the degeneracy exponent
``p`` of the operator, the zero-order exponent ``q``, the decay rate ``mu``
of the potential, the potential amplitude ``lam`` and the coercivity
constant ``k``.  From these the module computes the two growth thresholds

* ``C0``: the sharp exponential-regime constant,
* ``C1``: the sharp polynomial-regime constant, defined implicitly as the
  unique root above ``p`` of  C**(1/p) * (C - p)**(1/p') = C0,

together with the chain of comparison constants used by the integral
inequalities in :mod:`growthlab.growth`.  The admissible exponents, the
two error types, the report of one check and the two threshold
classifications live here too: none of them needs numpy, so the
subcommands that use only them never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class DomainError(ValueError):
    """Raised when an argument leaves the validity region of a formula."""


class QuadratureError(RuntimeError):
    """Panel budget or double precision exhausted before the tolerance.

    Carries the best available estimate so callers can inspect how far the
    refinement got.
    """

    def __init__(self, message: str, log_value: float, rel_error: float,
                 panels: int, evals: int):
        super().__init__(message)
        self.log_value, self.rel_error = log_value, rel_error
        self.panels, self.evals = panels, evals


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    lhs and rhs are the two sides in log scale; margin is oriented so that
    the claimed inequality corresponds to margin >= 0.  passed is not an
    argument: it is derived as margin >= -tolerance.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool = field(init=False)
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "passed", self.margin >= -self.tolerance)


def _check_finite_positive(name: str, r: float) -> None:
    """Raise DomainError naming r unless it is finite and positive."""
    if not (0.0 < r < math.inf):
        raise DomainError(f"{name} must be finite and positive, got {r}")


def _check_nonnegative(name: str, x: float) -> None:
    """Raise DomainError naming x unless it is finite and nonnegative."""
    if not (x >= 0.0):
        raise DomainError(f"{name} must be nonnegative, got {x}")
    if x == math.inf:
        raise DomainError(f"{name} must be finite, got {x}")


def _check_exponents(p: float, q: float | None = None,
                     mu: float | None = None) -> None:
    """DomainError unless 1 < p < inf, p - 1 < q < inf and 0 <= mu <= p."""
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p}")
    if not (p > 1.0):
        raise DomainError(f"p must exceed 1, got {p}")
    if q is not None and not math.isfinite(q):
        raise DomainError(f"q must be finite, got {q}")
    if q is not None and not (q > p - 1.0):
        raise DomainError(f"q must exceed p - 1 = {p - 1}, got {q}")
    if mu is not None and not (0.0 <= mu <= p):
        raise DomainError(f"mu must lie in [0, p] = [0, {p}], got {mu}")


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Params:
    """Validated parameter tuple (p, q, mu, lam, k).

    Constraints, in order: the exponents of _check_exponents, then lam and
    k finite and positive.  The exponents every constant is built from are
    read-only properties: gamma = q - p + 1 > 0, beta = 1 - mu/p in [0, 1]
    (0 exactly at the borderline mu = p) and p_conj = p' = p/(p - 1).
    """

    p: float
    q: float
    mu: float
    lam: float
    k: float = 1.0

    def __post_init__(self):
        _check_exponents(self.p, self.q, self.mu)
        _check_finite_positive("lam", self.lam)
        _check_finite_positive("k", self.k)

    @property
    def gamma(self) -> float:
        return self.q - self.p + 1.0

    @property
    def beta(self) -> float:
        return 1.0 - self.mu / self.p

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)


# ---------------------------------------------------------------------------
# sharp constants
# ---------------------------------------------------------------------------


def _c0(p: float, gamma: float, amp: float, k: float) -> float:
    """C0 at amplitude amp: p * (gamma/(p-1))**(1/p') * amp**(1/p) / k."""
    return p * (gamma / (p - 1.0)) ** ((p - 1.0) / p) * amp ** (1.0 / p) / k


def _c1_from_c0(p: float, C0: float) -> float:
    """Root above p of C**(1/p) * (C-p)**(1/p') = C0; see solve_C1."""
    if not (0.0 < C0 < math.inf):
        raise DomainError(f"C0 must be positive and finite, got {C0} at p={p}")
    # In z = log((C-p)/C0), (p-1) times g is p*z + softplus(w) with
    # w = log(p/C0) - z; its derivative is p - sigmoid(w), and
    # sigmoid(w) = exp(w - softplus(w)).
    log_p_over_c0 = math.log(p) - math.log(C0)
    z = 0.0
    # for C0 in [1e-300, 1e300] this settles within 10 passes when p - 1 is
    # in [1e-4, 20], and within 34 at p - 1 = 2**-52
    for _ in range(64):
        w = log_p_over_c0 - z
        softplus = max(w, 0.0) + math.log1p(math.exp(-abs(w)))
        g = p * z + softplus
        z_next = z - g / (p - math.exp(w - softplus))
        if not z_next < z:
            return p + C0 * math.exp(z)
        z = z_next
    raise DomainError(f"C1 iteration did not settle at p={p}, C0={C0}")


def compute_C0(p: float, q: float, lam: float, k: float = 1.0) -> float:
    """Sharp growth constant of the exponential regime.

    C0 = p * gamma**(1/p') * lam**(1/p) / ((p-1)**(1/p') * k),  gamma = q-p+1.

    For p = 2 this collapses to 2*sqrt(q-1)*sqrt(lam)/k.
    """
    return _c0(p, Params(p, q, mu=0.0, lam=lam, k=k).gamma, lam, k)


def solve_C1(p: float, q: float, lam: float, k: float = 1.0) -> float:
    """Sharp growth constant of the polynomial regime.

    C1 is the unique root above p of  C**(1/p) * (C-p)**(1/p') = C0.  In
    x = log(C - p) the equation reads g(x) = x + log(p + e**x)/(p-1)
    - p' log C0 = 0, and g is increasing and convex.  At x0 = log C0,
    g(x0) = log(1 + p/C0)/(p-1) > 0, so the root lies left of x0 and
    Newton's method started there decreases monotonically onto it: it
    needs no bracket and cannot step past the root.  The iteration is
    carried in z = x - log C0, which keeps C - p = C0 * e**z accurate when
    log C0 is large, and it stops once a step no longer decreases z.  For
    p = 2 the equation closes to C1 = 1 + sqrt(1 + C0**2).
    """
    return _c1_from_c0(p, compute_C0(p, q, lam, k))


# ---------------------------------------------------------------------------
# comparison constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonConstants:
    """Constant chain shared by the integral-inequality checks.

    All fields are evaluated at effective amplitude lam - eps.  The last
    three fields describe the borderline regime mu = p and are None
    otherwise.
    """

    eps: float
    c1: float          # normalisation of the comparison weight
    c2: float          # gamma / ((lam-eps) * k**p')
    c3: float          # C0 evaluated at amplitude lam - eps
    C2: float          # 1 + annulus constant entering the iteration
    c4: float | None   # borderline weight normalisation
    c5: float | None   # borderline growth exponent, root of the C1 equation
    c6: float | None   # borderline composite coefficient


def _annulus_constant(params: Params) -> float:
    """k**(p*p') * (p-1)**(p-1) * 4**p / (gamma * min(1, gamma**(p-1)))."""
    p, gamma = params.p, params.gamma
    return params.k ** (p * params.p_conj) * (p - 1.0) ** (p - 1.0) \
        * 4.0 ** p / (gamma * min(1.0, gamma ** (p - 1.0)))


def comparison_constants(params: Params, eps: float = 0.0) -> ComparisonConstants:
    """Evaluate the comparison-constant chain at amplitude lam - eps.

    Requires 0 <= eps < lam.  With eps = 0 the chain degenerates to the
    sharp values; c3 then equals compute_C0 and, in the borderline regime,
    c5 equals solve_C1.  Raises DomainError when extreme lam or k push a
    constant to 0 or past the largest double.
    """
    if not (0.0 <= eps < params.lam):
        raise DomainError(f"eps must lie in [0, lam) = [0, {params.lam}), got {eps}")
    p, k = params.p, params.k
    gamma, p_conj = params.gamma, params.p_conj
    amp = params.lam - eps

    c4 = c5 = c6 = None
    try:
        c1 = ((p - 1.0) * amp / gamma) ** (1.0 / (p * p_conj)) \
            * k ** (1.0 / p)
        c2 = gamma / (amp * k ** p_conj)
        c3 = _c0(p, gamma, amp, k)
        C2 = 1.0 + c2 * _annulus_constant(params)
        in_range = all(0.0 < c < math.inf for c in (c1, c2, c3, C2))
        if in_range and params.mu == p:
            c5 = _c1_from_c0(p, c3)
            c4 = (p * amp / c5) ** (1.0 / p)
            c6 = (p - 1.0) * c5 ** p_conj / (p ** p_conj * amp ** p_conj)
            in_range = 0.0 < c4 < math.inf and 0.0 < c6 < math.inf
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise DomainError(f"comparison constants leave double range at "
                          f"p={p}, lam={params.lam}, k={k}")

    return ComparisonConstants(eps=eps, c1=c1, c2=c2, c3=c3, C2=C2,
                               c4=c4, c5=c5, c6=c6)


# ---------------------------------------------------------------------------
# threshold classification
# ---------------------------------------------------------------------------


def liouville_check(params: Params, growth_constant: float) -> str:
    """Classify a growth constant against the sharp threshold C0.

    Returns "forced_zero" when growth_constant < C0 strictly: any
    nonnegative solution obeying the corresponding exponential growth bound
    must vanish.  Returns "inconclusive" at or above the threshold, where
    explicit nontrivial solutions exist.
    """
    if not math.isfinite(growth_constant):
        raise DomainError(f"growth constant must be finite, got {growth_constant}")
    C0 = compute_C0(params.p, params.q, params.lam, params.k)
    if growth_constant < C0:
        return "forced_zero"
    return "inconclusive"


def classify_l1_condition(sphere_log_slope: float, p: float,
                          finite_radius_infinite: bool = False) -> str:
    """Classify the reciprocal integrability of the sphere integral.

    The dichotomy depends on alpha = sphere_log_slope: the integral of
    phi**(1/(1-p)) over (r, inf) diverges for every r exactly when
    alpha / (p-1) <= 1 ("condition_holds"; alpha = -inf, a vanishing
    integrand, counts as holding).  When alpha / (p-1) > 1 the tail
    integral converges, and the condition can only be rescued near the
    origin: pass finite_radius_infinite=True when phi vanishes on some ball
    (so the integral is infinite for small r) to obtain
    "holds_only_for_small_r"; otherwise the verdict is "condition_fails".
    The distinction matters because the vanishing conclusions require the
    divergence for every radius, not just for some.  p must be admissible
    (see _check_exponents), and then the slope must not be nan.
    """
    _check_exponents(p)
    if math.isnan(sphere_log_slope):
        raise DomainError("sphere_log_slope is nan")
    if sphere_log_slope / (p - 1.0) <= 1.0:
        return "condition_holds"
    if finite_radius_infinite:
        return "holds_only_for_small_r"
    return "condition_fails"
