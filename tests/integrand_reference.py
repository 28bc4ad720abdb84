"""The integrand of growth._integrals as growthlab 0.1.0 formed it table by
table, kept as a test-only reference.

The library now calls log_value once on every node of a batch, edge nodes
included, and overwrites the edge nodes from log_value_delta, under the one
errstate of quadrature._panels.  Here log v of the nodes outside the edge
tables comes from one log_value call on their concatenation, split back
into G's and H's parts, and each table's expression is written out on its
own.  The excess log(v - s0) is restated too (log_excess), in its one
formula lv + log(-expm1(-d)), with d <= 0 masked afterwards, so a change to
models._log_excess_of shows here.  The tests assert that every node's value
equals this bit for bit, so no integrand drifts from the formula it had,
not even in the last bit.
"""

import math

import numpy as np

from growthlab.models import _support_start


def log_excess(log_s0, lv, d):
    """log(v - s0) on arrays of lv = log v and d = log v - log s0: lv where
    s0 = 0, else lv + log(-expm1(-d)), and -inf where d <= 0.  Run with
    numpy's warnings off."""
    if log_s0 == -math.inf:
        return lv
    out = lv + np.log(-np.expm1(-d))
    np.copyto(out, -math.inf, where=d <= 0.0)
    return out


def integrand(manifold, profile, p, q, s0, x, starts):
    """The log integrand at the nodes x of one batch, whose tables G's edge,
    G, H's edge, H and the J intervals start at starts, as _integrals gives
    them; p is None when only G is integrated."""
    ge, g, he, h, j = starts[:5]
    log_s0 = math.log(s0) if s0 > 0.0 else -math.inf
    t0 = _support_start(profile, s0)
    log_omega = math.log(manifold.omega)
    # an edge table integrates in tau at s = t0 + tau**m, m = ceil(2a)/a,
    # with a = q + 1 for G and a = q - p + 1 for H
    edges = []
    if ge < g:
        edges.append((ge, g, math.ceil(2.0 * (q + 1.0)) / (q + 1.0)))
    if he < h:
        gamma = q - p + 1.0
        edges.append((he, h, math.ceil(2.0 * gamma) / gamma))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s, lv, d = x.copy(), np.empty_like(x), np.empty_like(x)
        for lo, hi, m in edges:
            eta = x[lo:hi] ** m
            s[lo:hi] = t0 + eta
            d[lo:hi] = profile.log_value_delta(t0, eta)
            lv[lo:hi] = log_s0 + d[lo:hi]
        rest = np.concatenate((x[g:he], x[h:]))
        if rest.size:
            lv_rest = profile.log_value(rest)
            lv[g:he], lv[h:] = lv_rest[:he - g], lv_rest[he - g:]
            d[g:he], d[h:] = lv[g:he] - log_s0, lv[h:] - log_s0
        le = log_excess(log_s0, lv, d)
        lw = manifold.log_warp(s)
        # G and its edge: log(g * w**q)
        out = lw + q * le
        # H and its edge: log(g * w**(q-p) * v'**p), -inf where w = 0
        if he < j:
            out[he:j] = np.where(le[he:j] > -math.inf,
                                 lw[he:j] + (q - p) * le[he:j]
                                 + p * profile.log_deriv(s[he:j]), -math.inf)
        # the Jacobian ds = m * tau**(m - 1) dtau of each edge
        for lo, hi, m in edges:
            out[lo:hi] += math.log(m) + (m - 1.0) * np.log(x[lo:hi])
        # J: phi**(1/(1-p))
        if j < len(s):
            out[j:] = -((log_omega + lw[j:]) + q * le[j:]) / (p - 1.0)
    return out
