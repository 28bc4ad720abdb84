"""The integrand of growth._integrals as growthlab 0.1.0 formed it table by
table, with the support edge of G and H in the excess v - s0, kept as a
test-only reference.

The library calls log_value once on every node of a batch, edge nodes
included, under the one errstate of quadrature._panels, and reads the
radius and the Jacobian of an edge node from the profile's level map.
Here log v of the nodes outside the edge tables comes from one log_value
call on their concatenation, split back into G's and H's parts; the level
map of the two profile families of the grid is restated (level_map), and
each table's expression is written out on its own.  The excess
log(v - s0) is restated too (log_excess), in its one formula
lv + log(-expm1(-d)), with d <= 0 masked afterwards, so a change to
models._log_excess_of shows here.  The tests assert that every node's value
equals this bit for bit, so no integrand drifts from the formula it had,
not even in the last bit.
"""

import math

import numpy as np

from growthlab.models import ExpPower, PowerLaw


def log_excess(log_s0, lv, d):
    """log(v - s0) on arrays of lv = log v and d = log v - log s0: lv where
    s0 = 0, else lv + log(-expm1(-d)), and -inf where d <= 0.  Run with
    numpy's warnings off."""
    if log_s0 == -math.inf:
        return lv
    out = lv + np.log(-np.expm1(-d))
    np.copyto(out, -math.inf, where=d <= 0.0)
    return out


def level_map(profile, lam):
    """(log s, log e_v) at the levels lam = log v, e_v = s v'/v, of a
    PowerLaw v = s**c, where lam = c log s and e_v = c, or of an ExpPower
    v = e**(c s**b), where lam = c s**b and e_v = b lam."""
    if isinstance(profile, PowerLaw):
        return lam / profile.c, math.log(abs(profile.c))
    if isinstance(profile, ExpPower):
        return np.log(lam / profile.c) / profile.beta, np.log(profile.beta * abs(lam))
    raise TypeError(profile)


def integrand(manifold, profile, p, q, s0, x, starts):
    """The log integrand at the nodes x of one batch, whose tables G's edge,
    G, H's edge, H and the J intervals start at starts, as _integrals gives
    them; p is None when only G is integrated."""
    ge, g, he, h, j = starts[:5]
    log_s0 = math.log(s0) if s0 > 0.0 else -math.inf
    log_omega = math.log(manifold.omega)
    # an edge table integrates in tau at the excess w = v - s0 = tau**m,
    # m = ceil(2a)/a, with a = q + 1 for G and a = q - p + 1 for H
    edges = []
    if ge < g:
        edges.append((ge, g, math.ceil(2.0 * (q + 1.0)) / (q + 1.0)))
    if he < h:
        gamma = q - p + 1.0
        edges.append((he, h, math.ceil(2.0 * gamma) / gamma))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s, lv, d = x.copy(), np.empty_like(x), np.empty_like(x)
        edge_le, jacobians = {}, {}
        for lo, hi, m in edges:
            # the level lam = log(s0 + w), its radius s and log e_v; then
            # ds = m * tau**(m - 1) * s / (e_v * v) dtau
            log_tau = np.log(x[lo:hi])
            edge_le[lo] = m * log_tau
            lam = np.log1p(np.exp(edge_le[lo] - log_s0)) + log_s0
            log_s, log_ev = level_map(profile, lam)
            s[lo:hi] = np.exp(log_s)
            jacobians[lo] = ((log_s - log_ev) - lam) + (math.log(m) + (m - 1.0) * log_tau)
        rest = np.concatenate((x[g:he], x[h:]))
        if rest.size:
            lv_rest = profile.log_value(rest)
            lv[g:he], lv[h:] = lv_rest[:he - g], lv_rest[he - g:]
            d[g:he], d[h:] = lv[g:he] - log_s0, lv[h:] - log_s0
        # the edge nodes' entries of lv and d are unset: there log(v - s0)
        # is log w itself
        le = log_excess(log_s0, lv, d)
        for lo, hi, _ in edges:
            le[lo:hi] = edge_le[lo]
        lw = manifold.log_warp(s)
        # G and its edge: log(g * w**q)
        out = lw + q * le
        # H and its edge: log(g * w**(q-p) * v'**p), -inf where w = 0
        if he < j:
            out[he:j] = np.where(le[he:j] > -math.inf,
                                 lw[he:j] + (q - p) * le[he:j]
                                 + p * profile.log_deriv(s[he:j]), -math.inf)
        # the Jacobian of each edge
        for lo, hi, _ in edges:
            out[lo:hi] += jacobians[lo]
        # J: phi**(1/(1-p))
        if j < len(s):
            out[j:] = -((log_omega + lw[j:]) + q * le[j:]) / (p - 1.0)
    return out
