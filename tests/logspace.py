"""Log-space arithmetic that the tests build their closed-form oracles on."""

import math

import mpmath


def log_diff(a: float, b: float) -> float:
    """log(|exp(a) - exp(b)|); -inf when the two values agree."""
    if a == b:
        return -math.inf
    hi, lo = (a, b) if a > b else (b, a)
    if lo == -math.inf:
        return hi
    return hi + math.log1p(-math.exp(lo - hi))


def log_combine(parts) -> tuple[float, float]:
    """(log of the summed values, relative error of the sum) of results,
    each exactly rounded: formed at 50 digits and rounded once to a double.

    The relative error of a sum of nonnegative parts is the value-weighted
    mean of the parts' relative errors; an empty or zero sum is -inf with
    zero error.
    """
    with mpmath.workdps(50):
        terms = [(mpmath.exp(r.log_value), r.rel_error) for r in parts
                 if r.log_value > -math.inf]
        if not terms:
            return -math.inf, 0.0
        total = mpmath.fsum(v for v, _ in terms)
        rel = mpmath.fsum(v * rel for v, rel in terms) / total
        return float(mpmath.log(total)), float(rel)
