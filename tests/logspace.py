"""Log-space arithmetic that the tests build their closed-form oracles on."""

import math


def log_diff(a: float, b: float) -> float:
    """log(|exp(a) - exp(b)|); -inf when the two values agree."""
    if a == b:
        return -math.inf
    hi, lo = (a, b) if a > b else (b, a)
    if lo == -math.inf:
        return hi
    return hi + math.log1p(-math.exp(lo - hi))
